package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"halotis/internal/sim"
)

func TestStimulusRoundTrip(t *testing.T) {
	engine := sim.Stimulus{
		"a": {Init: true, Edges: []sim.InputEdge{{Time: 1, Rising: false, Slew: 0.2}, {Time: 5, Rising: true, Slew: 0.4}}},
		"b": {Edges: []sim.InputEdge{{Time: 2.5, Rising: true, Slew: 0.3}}},
	}
	if got := FromSim(engine).ToSim(); !reflect.DeepEqual(got, engine) {
		t.Errorf("ToSim(FromSim(st)) = %#v, want %#v", got, engine)
	}
}

func TestStimulusToSimDefaultsAndSorts(t *testing.T) {
	st := Stimulus{"a": {Edges: []Edge{
		{T: 9, Rising: false}, // omitted slew
		{T: 1, Rising: true, Slew: 0.2},
	}}}
	got := st.ToSim()["a"]
	if got.Edges[0].Time != 1 || got.Edges[1].Time != 9 {
		t.Errorf("edges not sorted: %+v", got.Edges)
	}
	if got.Edges[1].Slew != DefaultWireSlew {
		t.Errorf("omitted slew = %g, want %g", got.Edges[1].Slew, DefaultWireSlew)
	}

	// Edges at equal times keep their wire order (a stable sort).
	tied := Stimulus{"a": {Edges: []Edge{
		{T: 5, Rising: true, Slew: 0.1},
		{T: 1, Rising: true, Slew: 0.4},
		{T: 5, Rising: false, Slew: 0.2},
		{T: 5, Rising: true, Slew: 0.3},
	}}}.ToSim()["a"].Edges
	want := []sim.InputEdge{
		{Time: 1, Rising: true, Slew: 0.4},
		{Time: 5, Rising: true, Slew: 0.1},
		{Time: 5, Rising: false, Slew: 0.2},
		{Time: 5, Rising: true, Slew: 0.3},
	}
	if !reflect.DeepEqual(tied, want) {
		t.Errorf("equal-time edges = %+v, want %+v", tied, want)
	}
}

// TestStimulusToSimAllocs: converting a stimulus allocates the map and one
// edge slice per input, and nothing per edge or per sort.
func TestStimulusToSimAllocs(t *testing.T) {
	st := make(Stimulus, 5)
	for i := range 5 {
		st[fmt.Sprintf("in%d", i)] = InputWave{Edges: []Edge{{T: 3, Rising: true}, {T: 1}, {T: 2, Rising: true, Slew: 0.2}}}
	}
	//halotis:pins ToSim byTime
	if n := testing.AllocsPerRun(100, func() { st.ToSim() }); n > 7 {
		t.Errorf("ToSim of 5 inputs x 3 edges: %v allocations, want at most 7", n)
	}
}

func TestRequestValidate(t *testing.T) {
	valid := Request{TEnd: 30, Stimulus: Stimulus{"a": {Edges: []Edge{{T: 1, Rising: true}}}}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := map[string]Request{
		"zero t_end":    {TEnd: 0},
		"neg t_end":     {TEnd: -1},
		"bad model":     {TEnd: 1, Model: "spice"},
		"neg min_pulse": {TEnd: 1, MinPulse: -1},
		"neg timeout":   {TEnd: 1, TimeoutMs: -1},
		"neg edge time": {TEnd: 1, Stimulus: Stimulus{"a": {Edges: []Edge{{T: -1}}}}},
		"neg slew":      {TEnd: 1, Stimulus: Stimulus{"a": {Edges: []Edge{{T: 1, Slew: -1}}}}},
		"empty input":   {TEnd: 1, Stimulus: Stimulus{"": {}}},
	}
	for name, req := range cases {
		err := req.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want ErrInvalidRequest", name, err)
		}
	}
}

// TestRequestValidateAllocFree: a valid request formats no message, so
// validating a 64-input stimulus costs no allocation.
func TestRequestValidateAllocFree(t *testing.T) {
	st := make(Stimulus, 64)
	for i := range 64 {
		st[fmt.Sprintf("in%d", i)] = InputWave{Edges: []Edge{{T: 1, Rising: true, Slew: 0.2}, {T: 4, Slew: 0.3}}}
	}
	req := Request{TEnd: 30, Stimulus: st}
	//halotis:pins Validate validateDrive finite
	allocs := testing.AllocsPerRun(100, func() {
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Validate of a valid 64-input request: %g allocs, want 0", allocs)
	}
}

// TestStimulusValidateReportsSmallestName: of several bad inputs, every
// call reports the one with the smallest name, whatever the map order,
// with each failure kind's message.
func TestStimulusValidateReportsSmallestName(t *testing.T) {
	for _, tc := range []struct {
		edge Edge
		want string
	}{
		{Edge{T: math.NaN()}, `halotis: invalid request: stimulus "b" edge 1 t: non-finite value`},
		{Edge{T: -1}, `halotis: invalid request: stimulus "b" edge 1: negative time -1`},
		{Edge{T: 1, Slew: math.Inf(1)}, `halotis: invalid request: stimulus "b" edge 1 slew: non-finite value`},
		{Edge{T: 1, Slew: -2}, `halotis: invalid request: stimulus "b" edge 1: negative slew -2`},
	} {
		st := Stimulus{"a": {Edges: []Edge{{T: 1}}}}
		for _, name := range []string{"b", "c", "d", "e", "f", "g", "h", "i"} {
			st[name] = InputWave{Edges: []Edge{{T: 0.5}, tc.edge}}
		}
		req := Request{TEnd: 30, Stimulus: st}
		for range 200 {
			if err := req.Validate(); err == nil || err.Error() != tc.want {
				t.Fatalf("Validate = %v, want %s", err, tc.want)
			}
		}
	}
	st := Stimulus{"": {}, "a": {Edges: []Edge{{T: -1}}}}
	if err := st.Validate(); err == nil || err.Error() != "halotis: invalid request: stimulus: empty input name" {
		t.Fatalf("Validate with an empty name = %v", err)
	}
}

func TestSimRequestWireShape(t *testing.T) {
	// The embedded Request flattens onto the wire: the JSON shape is the
	// stable contract of POST /v1/simulate.
	req := SimRequest{
		Circuit: "abc",
		Request: Request{
			TEnd:     30,
			Model:    "cdm",
			Stimulus: Stimulus{"a": {Edges: []Edge{{T: 5, Rising: true, Slew: 0.2}}}},
		},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"circuit", "t_end", "model", "stimulus"} {
		if _, ok := m[key]; !ok {
			t.Errorf("wire JSON missing top-level %q: %s", key, data)
		}
	}
	if _, ok := m["request"]; ok {
		t.Errorf("embedded Request leaked as nested object: %s", data)
	}
}

func TestErrorTaxonomyHelpers(t *testing.T) {
	if !errors.Is(Canceled(context.Canceled), ErrCanceled) {
		t.Error("Canceled() does not match ErrCanceled")
	}
	if !errors.Is(Canceled(context.Canceled), context.Canceled) {
		t.Error("Canceled() does not unwrap to the context error")
	}
	if Canceled(nil) != ErrCanceled {
		t.Error("Canceled(nil) is not the bare sentinel")
	}
	wrapped := Canceled(context.DeadlineExceeded)
	if Canceled(wrapped) != wrapped {
		t.Error("Canceled() double-wraps")
	}

	oe := &OverloadedError{RetryAfter: 2 * time.Second}
	if !errors.Is(oe, ErrOverloaded) {
		t.Error("OverloadedError does not match ErrOverloaded")
	}
	if ra, ok := RetryAfter(oe); !ok || ra != 2*time.Second {
		t.Errorf("RetryAfter = %v, %v", ra, ok)
	}
	if _, ok := RetryAfter(errors.New("other")); ok {
		t.Error("RetryAfter matched a non-overload error")
	}

	if !errors.Is(NotFoundf("circuit %q", "x"), ErrCircuitNotFound) {
		t.Error("NotFoundf does not match ErrCircuitNotFound")
	}
	if !errors.Is(InvalidRequestf("bad %s", "field"), ErrInvalidRequest) {
		t.Error("InvalidRequestf does not match ErrInvalidRequest")
	}

	if got := CodeOf(MapRunError(context.Canceled)); got != CodeCanceled {
		t.Errorf("CodeOf(canceled) = %q", got)
	}
	if got := CodeOf(NotFoundf("x")); got != CodeNotFound {
		t.Errorf("CodeOf(not found) = %q", got)
	}
	if got := CodeOf(errors.New("boom")); got != "" {
		t.Errorf("CodeOf(unclassified) = %q, want empty", got)
	}
}

func TestFirstFailure(t *testing.T) {
	invalid := InvalidRequestf("bad")
	secondary := Canceled(context.Canceled)
	if i, err := FirstFailure([]error{nil, nil}); i != -1 || err != nil {
		t.Errorf("no failures: got %d, %v", i, err)
	}
	// A secondary cancellation at a lower index must not mask the root
	// cause.
	if i, err := FirstFailure([]error{secondary, invalid, nil}); i != 1 || !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("masked root cause: got %d, %v", i, err)
	}
	if i, err := FirstFailure([]error{nil, invalid, secondary}); i != 1 || !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("got %d, %v", i, err)
	}
	// All-cancellation batches (caller's context died) report the first.
	if i, err := FirstFailure([]error{nil, secondary, secondary}); i != 1 || !errors.Is(err, ErrCanceled) {
		t.Errorf("all canceled: got %d, %v", i, err)
	}
}

func TestParseModel(t *testing.T) {
	for in, want := range map[string]sim.Model{"": sim.DDM, "ddm": sim.DDM, "cdm": sim.CDM} {
		got, err := ParseModel(in)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseModel("hspice"); err == nil {
		t.Error("unknown model accepted")
	}
	if ModelName(sim.DDM) != "ddm" || ModelName(sim.CDM) != "cdm" {
		t.Error("ModelName mapping wrong")
	}
}
