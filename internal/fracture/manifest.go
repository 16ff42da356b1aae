package fracture

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"upidb/internal/storage"
	"upidb/internal/upi"
)

// The manifest is every store's partition catalog: one small
// text file naming the current main generation and every fracture
// generation, in flush order, each with the placement parameters that
// partition was built with ("main 3 cutoff=0.1 maxptr=0"): a query
// trusts a partition's cutoff when it decides whether to consult the
// cutoff index, so a partition must reopen with its own values, not
// with whatever Open's caller passes this time. Lines written before
// the tokens existed ("main 3") fall back to the caller's options. The
// manifest is written to a temp file, fsynced
// and renamed into place, so the rename is the atomic commit point of
// every flush and merge — a crash before the rename leaves the old
// manifest (and the half-built files as orphans, removed on the next
// open); a crash after it leaves the new state fully described. It is a
// sideband file, so its I/O is never charged.

func manifestName(store string) string { return store + ".manifest" }
func manifestTmpName(store string) string {
	return store + ".manifest.tmp"
}

// catalog is a store's partition list as its manifest records it: the
// main generation, the fracture generations in flush order, and the
// options each generation opens with.
type catalog struct {
	main  int
	fracs []int
	built map[int]upi.Options
}

// newCatalog describes a live partition list, main first.
func newCatalog(parts []*part) catalog {
	c := catalog{main: parts[0].gen, built: make(map[int]upi.Options, len(parts))}
	for i, p := range parts {
		if i > 0 {
			c.fracs = append(c.fracs, p.gen)
		}
		c.built[p.gen] = p.table.Options()
	}
	return c
}

// writeManifest atomically replaces the manifest with the given
// partition catalog.
func writeManifest(fs *storage.FS, store string, c catalog) error {
	var b strings.Builder
	line := func(kind string, gen int) {
		o := c.built[gen]
		fmt.Fprintf(&b, "%s %d cutoff=%s maxptr=%d\n", kind, gen,
			strconv.FormatFloat(o.Cutoff, 'g', -1, 64), o.MaxPointers)
	}
	line("main", c.main)
	for _, g := range c.fracs {
		line("frac", g)
	}
	tmp := manifestTmpName(store)
	fs.Sideband(tmp)
	fs.Sideband(manifestName(store))
	f := fs.Create(tmp)
	if err := f.WriteAt([]byte(b.String()), 0); err != nil {
		return fmt.Errorf("fracture: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("fracture: sync manifest: %w", err)
	}
	if err := fs.Rename(tmp, manifestName(store)); err != nil {
		return fmt.Errorf("fracture: commit manifest: %w", err)
	}
	return nil
}

// readManifest loads the partition catalog. Each named generation
// opens with the caller's options, with the placement parameters the
// manifest recorded for that partition laid over. A manifest that does
// not name exactly one main and distinct non-negative generations is
// corrupt: opening it would scan a partition twice or sweep a named
// partition's files away as orphans.
func readManifest(fs *storage.FS, store string, caller upi.Options) (catalog, error) {
	name := manifestName(store)
	fs.Sideband(name)
	f, err := fs.Open(name)
	if err != nil {
		return catalog{}, fmt.Errorf("fracture: open %q: %w", store, err)
	}
	data := make([]byte, f.Size())
	if len(data) > 0 {
		if err := f.ReadAt(data, 0); err != nil {
			return catalog{}, err
		}
	}
	c := catalog{main: -1, built: make(map[int]upi.Options)}
	for line := range strings.Lines(string(data)) {
		f := strings.Fields(line)
		if len(f) > 0 && !c.add(f, caller) {
			return catalog{}, fmt.Errorf("fracture: corrupt manifest line %q", strings.TrimSpace(line))
		}
	}
	if c.main < 0 {
		return catalog{}, fmt.Errorf("fracture: manifest for %q names no main partition", store)
	}
	sort.Ints(c.fracs)
	return c, nil
}

// add records the partition one manifest line names; false means the
// line is corrupt.
func (c *catalog) add(f []string, caller upi.Options) bool {
	if len(f) != 2 && len(f) != 4 {
		return false
	}
	n, err := strconv.Atoi(f[1])
	o := caller
	if err != nil || n < 0 || len(f) == 4 && !parsePlacement(f[2], f[3], &o) {
		return false
	}
	if _, dup := c.built[n]; dup {
		return false
	}
	switch {
	case f[0] == "main" && c.main < 0:
		c.main = n
	case f[0] == "frac":
		c.fracs = append(c.fracs, n)
	default:
		return false
	}
	c.built[n] = o
	return true
}

// parsePlacement reads a manifest line's "cutoff=<c>" and "maxptr=<n>"
// tokens into o; false means they are not that, or name options no
// build accepts (a NaN cutoff parses as a float).
func parsePlacement(cutoff, maxPtr string, o *upi.Options) bool {
	c, okC := strings.CutPrefix(cutoff, "cutoff=")
	m, okM := strings.CutPrefix(maxPtr, "maxptr=")
	var errC, errM error
	o.Cutoff, errC = strconv.ParseFloat(c, 64)
	o.MaxPointers, errM = strconv.Atoi(m)
	return okC && okM && errC == nil && errM == nil && o.Validate() == nil
}

// removeOrphans deletes partition files of generations the manifest
// does not name — debris of a flush or merge that crashed before its
// manifest commit — plus any stranded manifest temp file. Only files
// clearly belonging to this store's partition namespace are touched.
func removeOrphans(fs *storage.FS, store string, c catalog) {
	for _, f := range fs.List() {
		rest, found := strings.CutPrefix(f, store+".")
		if !found {
			continue
		}
		if rest == "manifest.tmp" {
			_ = fs.Remove(f)
			continue
		}
		kind, gen, found := cutPartitionName(rest)
		if !found {
			continue
		}
		if kind == "main" && gen != c.main || kind == "frac" && !slices.Contains(c.fracs, gen) {
			_ = fs.Remove(f)
		}
	}
}

// cutPartitionName parses "main<gen>.upi...", "frac<gen>.upi..." or
// "frac<gen>.delset" into its partition kind and generation.
func cutPartitionName(rest string) (kind string, gen int, ok bool) {
	for _, k := range []string{"main", "frac"} {
		num, found := strings.CutPrefix(rest, k)
		if !found {
			continue
		}
		digits, _, found := strings.Cut(num, ".")
		if !found {
			return "", 0, false
		}
		n, err := strconv.Atoi(digits)
		if err != nil {
			return "", 0, false
		}
		return k, n, true
	}
	return "", 0, false
}

// syncTableFiles fsyncs every file of a UPI partition.
func syncTableFiles(fs *storage.FS, t *upi.Table) error {
	for _, f := range t.Files() {
		if err := fs.Sync(f); err != nil {
			return err
		}
	}
	return nil
}
