package fracture

import (
	"bufio"
	"fmt"
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

// writeManifest atomically replaces the manifest with the given
// partition catalog.
func writeManifest(fs *storage.FS, store string, mainGen int, main *upi.Table, fractures []*fract) error {
	var b strings.Builder
	line := func(kind string, gen int, t *upi.Table) {
		o := t.Options()
		fmt.Fprintf(&b, "%s %d cutoff=%s maxptr=%d\n", kind, gen,
			strconv.FormatFloat(o.Cutoff, 'g', -1, 64), o.MaxPointers)
	}
	line("main", mainGen, main)
	for _, f := range fractures {
		line("frac", f.gen, f.table)
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

// readManifest loads the partition catalog. built maps each named
// generation to the options to open it with: the caller's, with the
// placement parameters the manifest recorded for that partition laid
// over.
func readManifest(fs *storage.FS, store string, caller upi.Options) (mainGen int, fracGens []int, built map[int]upi.Options, err error) {
	name := manifestName(store)
	fs.Sideband(name)
	f, err := fs.Open(name)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("fracture: open %q: %w", store, err)
	}
	data := make([]byte, f.Size())
	if len(data) > 0 {
		if err := f.ReadAt(data, 0); err != nil {
			return 0, nil, nil, err
		}
	}
	mainGen = -1
	built = make(map[int]upi.Options)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 && len(f) != 4 {
			return 0, nil, nil, fmt.Errorf("fracture: corrupt manifest line %q", line)
		}
		n, err := strconv.Atoi(f[1])
		o := caller
		if err != nil || len(f) == 4 && !parsePlacement(f[2], f[3], &o) {
			return 0, nil, nil, fmt.Errorf("fracture: corrupt manifest line %q", line)
		}
		built[n] = o
		switch f[0] {
		case "main":
			mainGen = n
		case "frac":
			fracGens = append(fracGens, n)
		default:
			return 0, nil, nil, fmt.Errorf("fracture: corrupt manifest line %q", line)
		}
	}
	if mainGen < 0 {
		return 0, nil, nil, fmt.Errorf("fracture: manifest for %q names no main partition", store)
	}
	sort.Ints(fracGens)
	return mainGen, fracGens, built, nil
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
func removeOrphans(fs *storage.FS, store string, mainGen int, fracGens []int) {
	keepFrac := make(map[int]bool, len(fracGens))
	for _, g := range fracGens {
		keepFrac[g] = true
	}
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
		orphan := false
		switch kind {
		case "main":
			orphan = gen != mainGen
		case "frac":
			orphan = !keepFrac[gen]
		}
		if orphan {
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
