// Command kbtool inspects and converts knowledge base files:
//
//	kbtool -kb kb.nt stats                 # size, taxonomy, largest classes
//	kbtool -kb kb.nt entity "Avram Hershko"  # types + outgoing/incoming edges
//	kbtool -kb kb.nt type city -limit 10   # instances of a class
//	kbtool pack kb.nt kb.snap              # text -> binary snapshot (DKBS)
//	kbtool unpack kb.snap kb.nt            # snapshot -> canonical text
//	kbtool info kb.snap                    # DKBS section table
//	kbtool verify kb.snap                  # header + checksums + stats
//	kbtool verify -deep kb.snap            # + structural integrity pass
//	kbtool diff old.snap new.snap > d.dkbsd   # incremental delta (DKBD)
//	kbtool apply old.snap d.dkbsd new.snap  # re-create new from delta
//
// diff emits the canonical DKBD delta between two KB contents — the
// triples, type assertions and subclass edges to remove and add, keyed
// by node name. Inputs may be snapshots or text; equal
// contents always diff to identical bytes. apply replays a delta onto a
// base KB, verifies the result's content fingerprint against the
// delta's promise, and writes the re-canonicalized result — for a
// canonical-text source, `diff | apply` is byte-identical to packing
// the new KB directly (CI's delta-check gate holds this).
//
// pack writes the page-aligned, pointer-free DKBS layout that
// detectived maps read-only into memory and serves in place (near-zero
// load time). info prints each section's offset, length, CRC and mmap
// eligibility. Files in the retired DKBS version 1 layout are refused
// by every subcommand; re-pack them from their N-Triples source.
//
// verify separates failure classes by exit code: 3 means the file is
// unreadable (magic, version, framing, checksum), 4 means it loads but
// the graph is structurally suspect (-deep only: dangling IDs,
// taxonomy cycles). It always checks every checksum via the streamed
// read; on an mmap-capable platform it additionally exercises the
// mapped load the server would use.
//
// pack and unpack are deterministic: the same graph always produces
// the same bytes (pack sorts every section; unpack emits the
// canonical text encoding), so snapshot artifacts diff and cache
// cleanly. "-" means stdin/stdout.
//
// It is the debugging companion for the triple files that datagen
// emits and detective/detectived consume.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"detective"
	"detective/internal/kb"
	"detective/internal/kb/verify"
)

func main() {
	kbPath := flag.String("kb", "", "knowledge base file (triple format)")
	limit := flag.Int("limit", 20, "maximum items to list")
	flag.Parse()

	// Conversion subcommands name their files positionally and do not
	// use -kb.
	switch flag.Arg(0) {
	case "pack":
		pack(flag.Args()[1:])
		return
	case "unpack":
		unpack(flag.Arg(1), flag.Arg(2))
		return
	case "info":
		os.Exit(runInfo(flag.Args()[1:], os.Stdout, os.Stderr))
	case "verify":
		os.Exit(runVerify(flag.Args()[1:], os.Stdout, os.Stderr))
	case "diff":
		runDiff(flag.Args()[1:])
		return
	case "apply":
		os.Exit(runApply(flag.Args()[1:], os.Stderr))
	}

	if *kbPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: kbtool -kb KB stats | entity NAME | type CLASS\n"+
			"       kbtool pack KB.nt KB.snap | unpack KB.snap KB.nt | info KB.snap | verify KB.snap")
		os.Exit(2)
	}
	f, err := os.Open(*kbPath)
	fail(err)
	g, err := detective.ParseKB(f)
	f.Close()
	fail(err)

	switch flag.Arg(0) {
	case "stats":
		fmt.Println(g.ComputeStats(10))
	case "entity":
		if flag.NArg() < 2 {
			fail(fmt.Errorf("entity needs a name"))
		}
		entity(g, flag.Arg(1), *limit)
	case "type":
		if flag.NArg() < 2 {
			fail(fmt.Errorf("type needs a class name"))
		}
		listType(g, flag.Arg(1), *limit)
	default:
		fail(fmt.Errorf("unknown command %q", flag.Arg(0)))
	}
}

// openIn opens path for reading; "-" is stdin.
func openIn(path string) io.ReadCloser {
	if path == "-" {
		return io.NopCloser(os.Stdin)
	}
	f, err := os.Open(path)
	fail(err)
	return f
}

// createOut creates path for writing; "-" is stdout.
func createOut(path string) io.WriteCloser {
	if path == "-" {
		return nopWriteCloser{os.Stdout}
	}
	f, err := os.Create(path)
	fail(err)
	return f
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// pack converts a text-format KB to the binary snapshot format. It is
// deterministic: packing the same input twice produces byte-identical
// snapshots.
func pack(args []string) {
	if len(args) != 2 {
		fail(fmt.Errorf("usage: kbtool pack KB.nt KB.snap"))
	}
	r := openIn(args[0])
	g, err := detective.ParseKB(bufio.NewReader(r))
	r.Close()
	fail(err)
	saveSnapshot(args[1], g)
}

// saveSnapshot writes g as a DKBS snapshot to path ("-" is stdout).
func saveSnapshot(path string, g *detective.KB) {
	w := createOut(path)
	bw := bufio.NewWriter(w)
	fail(detective.WriteKBSnapshot(bw, g))
	fail(bw.Flush())
	fail(w.Close())
}

// loadAny loads a KB from path in whichever format it carries: DKBS
// snapshots are recognized by magic, anything else is parsed as the
// text triple format.
func loadAny(path string) *detective.KB {
	r := openIn(path)
	defer r.Close()
	br := bufio.NewReader(r)
	if magic, err := br.Peek(4); err == nil && string(magic) == "DKBS" {
		g, err := detective.LoadKBSnapshot(br)
		fail(err)
		return g
	}
	g, err := detective.ParseKB(br)
	fail(err)
	return g
}

// runDiff implements `kbtool diff OLD NEW [DELTA.dkbsd]`: the
// canonical DKBD delta from OLD's content to NEW's, written to the
// third argument or stdout. A one-line summary goes to stderr.
func runDiff(args []string) {
	var paths []string
	for _, a := range args {
		if a != "" {
			paths = append(paths, a)
		}
	}
	if len(paths) != 2 && len(paths) != 3 {
		fail(fmt.Errorf("usage: kbtool diff OLD NEW [DELTA.dkbsd]"))
	}
	oldG := loadAny(paths[0])
	newG := loadAny(paths[1])
	d := detective.DiffKB(oldG, newG)
	out := "-"
	if len(paths) == 3 {
		out = paths[2]
	}
	w := createOut(out)
	bw := bufio.NewWriter(w)
	fail(d.Write(bw))
	fail(bw.Flush())
	fail(w.Close())
	fmt.Fprintln(os.Stderr, "kbtool:", d)
}

// runApply implements `kbtool apply BASE DELTA.dkbsd OUT.snap`:
// replay DELTA onto BASE, fully re-verify the result's content
// fingerprint against the delta's promise, and write the result
// re-canonicalized — same node order as a fresh pack of the new
// content's canonical text, so for canonical sources the output is
// byte-identical to packing the new KB directly. Exit codes follow
// verify's convention: 3 for a corrupt delta file, 5 for a delta whose
// base content does not match BASE.
func runApply(args []string, errw io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(errw, "usage: kbtool apply BASE DELTA.dkbsd OUT.snap")
		return 2
	}
	base := loadAny(args[0])
	r := openIn(args[1])
	d, err := detective.ReadKBDelta(bufio.NewReader(r))
	r.Close()
	if err != nil {
		fmt.Fprintln(errw, "kbtool: corrupt delta:", err)
		return 3
	}
	applied, err := base.ApplyDelta(d)
	if err != nil {
		if errors.Is(err, kb.ErrDeltaBaseMismatch) {
			fmt.Fprintln(errw, "kbtool: delta does not apply:", err)
			return 5
		}
		fmt.Fprintln(errw, "kbtool:", err)
		return 1
	}
	// Re-canonicalize through the text encoding: a fresh parse assigns
	// the canonical node order (the applied graph keeps the base's,
	// plus orphans) and recomputes the fingerprint from scratch — a
	// full end-to-end verification, not just the incremental check
	// ApplyDelta already did.
	var buf bytes.Buffer
	fail(applied.Encode(&buf))
	canon, err := detective.ParseKB(&buf)
	fail(err)
	if fp := canon.Fingerprint(); fp != d.NewFP {
		fmt.Fprintf(errw, "kbtool: applied content fingerprint %016x does not match the delta's promised %016x\n", fp, d.NewFP)
		return 1
	}
	saveSnapshot(args[2], canon)
	return 0
}

// runInfo implements `kbtool info KB.snap`: the DKBS section table —
// per-section offset, length, CRC-32C, and whether the section is
// stored raw (mmap-eligible) and page-aligned. It reads only headers
// and directories, never payloads, so it is instant on any size file.
func runInfo(args []string, out, errw io.Writer) int {
	if len(args) != 1 || args[0] == "" || args[0] == "-" {
		fmt.Fprintln(errw, "usage: kbtool info KB.snap")
		return 2
	}
	info, err := kb.ReadSnapshotInfo(args[0])
	if err != nil {
		fmt.Fprintln(errw, "kbtool: unreadable snapshot:", err)
		return 3
	}
	fmt.Fprintf(out, "DKBS v%d, %d bytes, %d sections\n",
		info.Version, info.FileSize, len(info.Sections))
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tSECTION\tOFFSET\tLENGTH\tCRC32C\tSTORAGE")
	for _, s := range info.Sections {
		storage := "varint"
		if s.Raw {
			storage = "raw"
			if s.Aligned {
				storage = "raw, page-aligned"
			}
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%08x\t%s\n",
			s.ID, s.Name, s.Offset, s.Length, s.CRC, storage)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(errw, "kbtool:", err)
		return 1
	}
	return 0
}

// unpack converts a binary snapshot back to the canonical text
// encoding (sorted sections — deterministic, Parse-compatible).
func unpack(in, out string) {
	if in == "" || out == "" {
		fail(fmt.Errorf("usage: kbtool unpack KB.snap KB.nt"))
	}
	r := openIn(in)
	g, err := detective.LoadKBSnapshot(r)
	r.Close()
	fail(err)
	w := createOut(out)
	bw := bufio.NewWriter(w)
	fail(g.Encode(bw))
	fail(bw.Flush())
	fail(w.Close())
}

// runVerify implements `kbtool verify [-deep] KB.snap`. The plain form
// loads the snapshot — exercising the header, section layout and every
// checksum — and prints a one-line summary; -deep then runs the full
// structural/semantic integrity pass on the loaded graph. Exit codes
// separate the failure classes so scripts can react differently:
//
//	0  the file would serve (and, with -deep, passed the self-check)
//	3  unreadable file: bad magic, a retired or unknown version,
//	   framing, or checksum — re-pack it
//	4  loads fine but is structurally suspect (dangling IDs,
//	   asymmetric indexes, taxonomy cycles) — inspect the source data
func runVerify(args []string, out, errw io.Writer) int {
	deep := false
	in := ""
	for _, a := range args {
		switch {
		case a == "-deep" || a == "--deep":
			deep = true
		case in == "":
			in = a
		default:
			fmt.Fprintln(errw, "usage: kbtool verify [-deep] KB.snap")
			return 2
		}
	}
	if in == "" {
		fmt.Fprintln(errw, "usage: kbtool verify [-deep] KB.snap")
		return 2
	}
	r := openIn(in)
	g, err := detective.LoadKBSnapshot(r)
	r.Close()
	if err != nil {
		what := "corrupt"
		if errors.Is(err, kb.ErrSnapshotV1) {
			what = "unsupported"
		}
		fmt.Fprintf(errw, "kbtool: %s snapshot: %v\n", what, err)
		return 3
	}
	fmt.Fprintf(out, "ok: %d nodes, %d triples, generation %d\n",
		g.NumNodes(), g.NumTriples(), g.Generation())
	// The load above checked every checksum. For an on-disk file also
	// exercise the serving path — LoadSnapshotFile maps the file
	// in place where supported — and cross-check the two loads, so
	// "verify ok" means ok for the reader detectived actually uses.
	if in != "-" {
		mg, merr := kb.LoadSnapshotFile(in)
		switch {
		case merr != nil:
			fmt.Fprintln(errw, "kbtool: mmap load failed:", merr)
			return 3
		case mg.NumNodes() != g.NumNodes() || mg.NumTriples() != g.NumTriples():
			fmt.Fprintf(errw, "kbtool: mmap load disagrees with the streamed load: %d/%d nodes, %d/%d triples\n",
				mg.NumNodes(), g.NumNodes(), mg.NumTriples(), g.NumTriples())
			return 3
		case mg.Mapped():
			fmt.Fprintln(out, "mmap: ok (served in place)")
		default:
			fmt.Fprintln(out, "mmap: ok (streamed load on this platform)")
		}
	}
	if !deep {
		return 0
	}
	rep := verify.Check(g, verify.Options{})
	for _, f := range rep.Findings {
		fmt.Fprintln(out, " ", f)
	}
	if rep.Truncated {
		fmt.Fprintln(out, "  ... more findings truncated")
	}
	fmt.Fprintln(out, rep.Summary())
	if !rep.OK() {
		fmt.Fprintln(errw, "kbtool: snapshot is structurally suspect")
		return 4
	}
	return 0
}

func entity(g *detective.KB, name string, limit int) {
	id := g.Lookup(name)
	if id == kb.Invalid {
		fail(fmt.Errorf("entity %q not in the KB", name))
	}
	fmt.Printf("%s (%v)\n", name, g.KindOf(id))
	if types := g.TypesOf(id); len(types) > 0 {
		fmt.Print("  types:")
		for _, c := range types {
			fmt.Printf(" <%s>", g.Name(c))
		}
		fmt.Println()
	}
	out := g.Out(id)
	for i, e := range out {
		if i == limit {
			fmt.Printf("  ... %d more outgoing\n", len(out)-limit)
			break
		}
		fmt.Printf("  -%s-> %s\n", g.Name(e.Pred), g.Name(e.To))
	}
	in := g.In(id)
	for i, e := range in {
		if i == limit {
			fmt.Printf("  ... %d more incoming\n", len(in)-limit)
			break
		}
		fmt.Printf("  <-%s- %s\n", g.Name(e.Pred), g.Name(e.To))
	}
}

func listType(g *detective.KB, cls string, limit int) {
	id := g.Lookup(cls)
	if id == kb.Invalid {
		fail(fmt.Errorf("class %q not in the KB", cls))
	}
	insts := g.InstancesOf(id)
	fmt.Printf("<%s>: %d instances\n", cls, len(insts))
	for i, inst := range insts {
		if i == limit {
			fmt.Printf("... %d more\n", len(insts)-limit)
			break
		}
		fmt.Printf("  %s\n", g.Name(inst))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbtool:", err)
		os.Exit(1)
	}
}
