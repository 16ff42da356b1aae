package fracture

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"upidb/internal/upi"
)

// FuzzManifest throws arbitrary bytes at the manifest parser Open
// trusts to name the partitions it keeps. It must never panic; an
// accepted manifest names one main and distinct non-negative
// generations, each with valid options; and writing the catalog back
// and reading it again gives the same catalog.
func FuzzManifest(f *testing.F) {
	f.Add([]byte("main 3 cutoff=0.1 maxptr=0\nfrac 4 cutoff=0.25 maxptr=5\nfrac 6 cutoff=0 maxptr=0\n"))
	f.Add([]byte("main 1\nfrac 2\n")) // written before placement was recorded
	f.Add([]byte("\n  main 7 cutoff=1e-3 maxptr=2  \n\n"))
	f.Add([]byte("main 1\nfrac 2\nfrac 2\n"))
	f.Add([]byte("main 1\nmain 2\n"))
	f.Add([]byte("main 1\nfrac -2\n"))
	f.Add([]byte("main 1 cutoff=NaN maxptr=0\n"))
	f.Add([]byte("main 1\n" + strings.Repeat("x", 700) + "\nfrac 2\n"))
	f.Add([]byte{})
	caller := upi.Options{Cutoff: 0.1}.WithDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := newFS()
		fs.Sideband(manifestName("t"))
		if err := fs.Create(manifestName("t")).WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		c, err := readManifest(fs, "t", caller)
		if err != nil {
			return
		}
		gens := append([]int{c.main}, c.fracs...)
		if slices.Min(gens) < 0 || len(slices.Compact(slices.Sorted(slices.Values(gens)))) != len(gens) {
			t.Fatalf("accepted generations %v: main %d, fractures %v", gens, c.main, c.fracs)
		}
		if len(c.built) != len(gens) {
			t.Fatalf("options for %d generations, %d named", len(c.built), len(gens))
		}
		for _, g := range gens {
			if o, ok := c.built[g]; !ok || o.Validate() != nil {
				t.Fatalf("generation %d opens with %+v (recorded %v)", g, o, ok)
			}
		}
		if err := writeManifest(fs, "t", c); err != nil {
			t.Fatal(err)
		}
		again, err := readManifest(fs, "t", caller)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("catalog %+v reads back as %+v (%v)", c, again, err)
		}
	})
}
