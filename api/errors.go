package api

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// The error taxonomy every backend speaks. Local and Remote sessions
// return errors matchable with errors.Is against these sentinels, so
// callers branch on failure class instead of string-matching messages —
// and the branching code is backend-agnostic.
var (
	// ErrCircuitNotFound: the session's circuit is no longer held by the
	// backend (evicted from the remote cache, or the session was closed).
	ErrCircuitNotFound = errors.New("halotis: circuit not found")
	// ErrOverloaded: the backend refused admission (queue full, or the
	// local concurrency bound reached). Retry after RetryAfter(err).
	ErrOverloaded = errors.New("halotis: backend overloaded")
	// ErrCanceled: the run was aborted by context cancellation or
	// deadline. Errors matching it also unwrap to the causing
	// context.Canceled or context.DeadlineExceeded where known.
	ErrCanceled = errors.New("halotis: run canceled")
	// ErrInvalidRequest: the request failed validation (bad horizon,
	// unknown model, malformed stimulus, unknown waveform net).
	ErrInvalidRequest = errors.New("halotis: invalid request")
	// ErrDeadlineExceeded: the request was shed before execution because
	// its propagated deadline budget had already expired (at admission, or
	// at dequeue from the worker queue). Distinct from ErrCanceled, which
	// marks work aborted mid-run: a deadline-shed request consumed no
	// simulation work at all.
	ErrDeadlineExceeded = errors.New("halotis: deadline exceeded before execution")
)

// Machine-readable error codes carried by ErrorResponse.Code; the client
// maps them back onto the sentinels above.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeNotFound         = "not_found"
	CodeOverloaded       = "overloaded"
	CodeCanceled         = "canceled"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeRunFailed        = "run_failed"
)

// CodeOf classifies an error into a wire code, or "" for unclassified
// (run-level) failures.
func CodeOf(err error) string {
	switch {
	case errors.Is(err, ErrInvalidRequest):
		return CodeInvalidRequest
	case errors.Is(err, ErrCircuitNotFound):
		return CodeNotFound
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	}
	return ""
}

// OverloadedError is an ErrOverloaded with a retry hint.
type OverloadedError struct {
	// RetryAfter is the backend's suggested wait before retrying
	// (0 = retry whenever).
	RetryAfter time.Duration
	// Cause is the underlying admission failure, if any.
	Cause error
}

func (e *OverloadedError) Error() string {
	msg := ErrOverloaded.Error()
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(" (retry after %v)", e.RetryAfter)
	}
	return msg
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Unwrap exposes the underlying admission failure.
func (e *OverloadedError) Unwrap() error { return e.Cause }

// RetryAfter extracts the retry hint from an overload error, if present.
func RetryAfter(err error) (time.Duration, bool) {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// canceledError wraps a context abort so it matches both ErrCanceled and
// the original context error.
type canceledError struct{ cause error }

func (e *canceledError) Error() string { return ErrCanceled.Error() + ": " + e.cause.Error() }

// Is makes errors.Is(err, ErrCanceled) match.
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap exposes the context error (context.Canceled / DeadlineExceeded).
func (e *canceledError) Unwrap() error { return e.cause }

// Canceled wraps a run error caused by context cancellation so it matches
// ErrCanceled while still unwrapping to the context error. A nil cause
// returns the bare sentinel.
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	if errors.Is(cause, ErrCanceled) {
		return cause
	}
	return &canceledError{cause: cause}
}

// MapRunError classifies a kernel run error: context aborts become
// ErrCanceled-matchable, everything else passes through.
func MapRunError(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Canceled(err)
	}
	return err
}

// FirstFailure picks the error to report for a failed fan-out, given the
// per-request error slots of a batch: the first NON-cancellation failure
// if one exists — a job that fails on its own merits cancels its sibling
// jobs, which then abort (possibly at lower indexes) with ErrCanceled, and
// those secondary aborts must not mask the root cause. Only when every
// failure is a cancellation (the caller's context died) is the first of
// those returned. Returns (-1, nil) when no slot holds an error.
func FirstFailure(errs []error) (int, error) {
	firstIdx, firstErr := -1, error(nil)
	for i, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstIdx, firstErr = i, err
		}
		if !errors.Is(err, ErrCanceled) {
			return i, err
		}
	}
	return firstIdx, firstErr
}

// invalid wraps a validation failure so it matches ErrInvalidRequest.
func invalid(err error) error {
	if err == nil || errors.Is(err, ErrInvalidRequest) {
		return err
	}
	return fmt.Errorf("%w: %s", ErrInvalidRequest, err.Error())
}

// invalidf is invalid with formatting.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidRequest, fmt.Sprintf(format, args...))
}

// NotFoundf builds an ErrCircuitNotFound-matchable error.
func NotFoundf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCircuitNotFound, fmt.Sprintf(format, args...))
}

// InvalidRequestf builds an ErrInvalidRequest-matchable error; layers above
// use it for validation failures discovered outside Validate (for example
// a stimulus driving a net the circuit does not have).
func InvalidRequestf(format string, args ...any) error {
	return invalidf(format, args...)
}

// DeadlineExceededf builds an ErrDeadlineExceeded-matchable error; servers
// use it when shedding work whose propagated budget expired before the
// simulation started.
func DeadlineExceededf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrDeadlineExceeded, fmt.Sprintf(format, args...))
}

// ErrorResponseOf classifies an error into a wire error body — the
// inverse of ErrorResponse.Err. Replica and router build every error body
// they send with it, a partial batch's per-request failures included; an
// error outside the taxonomy is coded run_failed. Returns nil for a nil
// error.
func ErrorResponseOf(err error) *ErrorResponse {
	if err == nil {
		return nil
	}
	resp := &ErrorResponse{Error: err.Error(), Code: CodeOf(err)}
	if resp.Code == "" {
		resp.Code = CodeRunFailed
	}
	if ra, ok := RetryAfter(err); ok && ra > 0 {
		resp.RetryAfterMs = ra.Milliseconds()
	}
	return resp
}

// Err reconstructs a taxonomy-matchable error from a wire error body, so a
// caller holding a per-chunk ErrorResponse (partial batch mode) can branch
// with errors.Is exactly as it would on a direct failure. Returns nil for
// an empty body.
func (e *ErrorResponse) Err() error {
	if e == nil || (e.Error == "" && e.Code == "") {
		return nil
	}
	switch e.Code {
	case CodeInvalidRequest:
		return invalidf("%s", e.Error)
	case CodeNotFound:
		return NotFoundf("%s", e.Error)
	case CodeOverloaded:
		return &OverloadedError{
			RetryAfter: time.Duration(e.RetryAfterMs) * time.Millisecond,
			Cause:      errors.New(e.Error),
		}
	case CodeCanceled:
		return Canceled(errors.New(e.Error))
	case CodeDeadlineExceeded:
		return DeadlineExceededf("%s", e.Error)
	}
	return errors.New(e.Error)
}
