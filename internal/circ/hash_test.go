package circ_test

import (
	"strings"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circ"
	"halotis/internal/circuits"
	"halotis/internal/netfmt"
	"halotis/internal/netlist"
)

// hashCircuit builds the small reference circuit of the hash tests.
func hashCircuit(t *testing.T, lib *cellib.Library, mutate func(*netlist.Builder)) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("h", lib)
	b.Input("a")
	b.Input("b")
	b.AddGate("g1", cellib.NAND2, "y", "a", "b")
	b.Output("y")
	if mutate != nil {
		mutate(b)
	}
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func TestContentHashStableAcrossRebuilds(t *testing.T) {
	lib := cellib.Default06()
	h1 := circ.ContentHash(hashCircuit(t, lib, nil))
	h2 := circ.ContentHash(hashCircuit(t, lib, nil))
	if h1 != h2 {
		t.Errorf("identical circuits hash differently: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Errorf("hash %q is not hex SHA-256", h1)
	}
}

func TestContentHashIgnoresCircuitName(t *testing.T) {
	lib := cellib.Default06()
	a := hashCircuit(t, lib, nil)
	b := hashCircuit(t, lib, nil)
	b.Name = "renamed"
	if circ.ContentHash(a) != circ.ContentHash(b) {
		t.Error("display name changed the content hash")
	}
}

func TestContentHashSensitivity(t *testing.T) {
	lib := cellib.Default06()
	ref := circ.ContentHash(hashCircuit(t, lib, nil))

	mutations := map[string]func(*netlist.Builder){
		"vt":      func(b *netlist.Builder) { b.SetPinVT("g1", 0, 2.2) },
		"wirecap": func(b *netlist.Builder) { b.SetWireCap("y", 0.05) },
	}
	for name, mutate := range mutations {
		if got := circ.ContentHash(hashCircuit(t, lib, mutate)); got == ref {
			t.Errorf("mutation %q did not change the hash", name)
		}
	}

	// A different gate kind with identical connectivity must change the hash.
	kindVariant := func(t *testing.T) *netlist.Circuit {
		b := netlist.NewBuilder("h", lib)
		b.Input("a")
		b.Input("b")
		b.AddGate("g1", cellib.NOR2, "y", "a", "b")
		b.Output("y")
		ckt, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return ckt
	}
	if got := circ.ContentHash(kindVariant(t)); got == ref {
		t.Error("gate kind did not change the hash")
	}

	// A different library identity must change the hash even with the same
	// topology.
	lib2 := cellib.Default06()
	lib2.Name = "characterized-variant"
	if got := circ.ContentHash(hashCircuit(t, lib2, nil)); got == ref {
		t.Error("library identity did not change the hash")
	}
}

func TestContentHashStableAcrossBenchWhitespace(t *testing.T) {
	lib := cellib.Default06()
	text := netfmt.C17Bench()
	// Reflow the .bench text: extra blank lines, comments, and padded
	// separators must not change the parsed circuit's content hash.
	var reflowed strings.Builder
	reflowed.WriteString("# reflowed copy\n\n")
	for _, line := range strings.Split(text, "\n") {
		reflowed.WriteString("  " + strings.ReplaceAll(line, ",", " , ") + "\n\n")
	}

	a, err := netfmt.ParseBench(strings.NewReader(text), lib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := netfmt.ParseBench(strings.NewReader(reflowed.String()), lib)
	if err != nil {
		t.Fatal(err)
	}
	if circ.ContentHash(a) != circ.ContentHash(b) {
		t.Error("whitespace-equivalent .bench inputs hash differently")
	}
}

// TestContentHashPinned pins the IDs of three reference circuits. Circuit
// IDs cross the wire and key every cache, so a change to the canonical
// rendering — even one that keeps the hash's sensitivity — breaks stored
// IDs and mixed-version fleets. These literals must not change.
func TestContentHashPinned(t *testing.T) {
	lib := cellib.Default06()
	c17, err := netfmt.ParseBench(strings.NewReader(netfmt.C17Bench()), lib)
	if err != nil {
		t.Fatal(err)
	}
	mult, err := circuits.Multiplier4x4(lib)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := circuits.RandomCombinational(lib, circuits.RandomOptions{Inputs: 8, Gates: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ckt  *netlist.Circuit
		want string
	}{
		{"c17", c17, "3281bdc30ce7d4f6a6ea1f8f54fb29f0187ac032631d9522fdf15d43d6444604"},
		{"Fig. 5 multiplier", mult, "f16922e9257470b85ec2522a71c7c317c0709eb8ec5f040a19d5842645596793"},
		{"random DAG seed 1", dag, "daabecd74f57997a51a255a4e16ca57ea19a6fe71de8317947eee251e044822d"},
	} {
		if got := circ.ContentHash(c.ckt); got != c.want {
			t.Errorf("%s: ID %s, want %s", c.name, got, c.want)
		}
	}
}
