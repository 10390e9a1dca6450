package analysis

import "strings"

// Scoped binds an analyzer to the packages whose contract it enforces. An
// empty Paths list applies everywhere.
type Scoped struct {
	*Analyzer
	// Paths are import-path prefixes ("halotis/internal/sim" matches the
	// package and any nested packages).
	Paths []string
}

// Matches reports whether the analyzer applies to pkgPath.
func (s Scoped) Matches(pkgPath string) bool {
	if len(s.Paths) == 0 {
		return true
	}
	for _, p := range s.Paths {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// KernelPackages are the event-kernel packages bound by the determinism
// contract: everything between a compiled circuit and a finished Result
// must be a pure function of its inputs.
var KernelPackages = []string{
	"halotis/internal/sim",
	"halotis/internal/circ",
	"halotis/internal/eventq",
	"halotis/internal/wave",
	"halotis/internal/delay",
}

// RequestPathPackages are the packages bound by the deadline-propagation
// contract from PR 6: every hop between a caller and a kernel run,
// including the node shell both daemon roles serve through.
var RequestPathPackages = []string{
	"halotis/internal/service",
	"halotis/internal/node",
	"halotis/cluster",
	"halotis/client",
}

// Suite is the halotislint analyzer set with its package scoping.
func Suite() []Scoped {
	return []Scoped{
		{Analyzer: Determinism, Paths: KernelPackages},
		{Analyzer: NoAlloc},
		{Analyzer: CtxFlow, Paths: RequestPathPackages},
		{Analyzer: MetricReg},
		{Analyzer: WireTags},
	}
}

// ByName returns the suite entry with the given analyzer name, or nil.
func ByName(name string) *Scoped {
	for _, s := range Suite() {
		if s.Name == name {
			sc := s
			return &sc
		}
	}
	return nil
}
