package provstore_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/path"
	"repro/internal/provstore"
)

// updateShardGolden rewrites testdata/shardfor_golden.txt. A persisted
// sharded://?shard=rel://… store routes every record by ShardFor, so the
// file pins the routing of existing stores: regenerate it only for a
// deliberate change of the store layout.
var updateShardGolden = flag.Bool("update-shard-golden", false, "rewrite testdata/shardfor_golden.txt")

// shardGoldenPaths covers the label shapes routing must not change on:
// deep paths, non-ASCII labels, labels holding the escaped bytes 0x00 and
// 0x01, and the {n} labels of keyed collections.
var shardGoldenPaths = [][]string{
	{"T"},
	{"T", "a"},
	{"S", "a"},
	{"T", "c1"},
	{"T", "c1", "y"},
	{"T", "c2", "x", "w"},
	{"T", "ab", "c"},
	{"T", "a", "bc"},
	{"SwissProt", "Release{20}", "Q01780", "Citation{3}", "Title"},
	{"T", "Citation{1}"},
	{"T", "k00", "t17"},
	{"T", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"},
	{"T", "größe", "値"},
	{"Ω", "α", "β", "γ"},
	{"T", "a\x00b"},
	{"T", "\x00"},
	{"T", "\x01", "\x01\x00"},
	{"T", "x\x01y", "z"},
	{"T", "\xff", "é"},
	{"T", "{0}", "{1}", "{2}"},
	{"T", "Release{20}", "entry{4711}", "*"},
}

// TestShardForGolden: ShardFor gives the same shard as when the golden file
// was written, for every path and shard count.
func TestShardForGolden(t *testing.T) {
	var got strings.Builder
	for _, labels := range shardGoldenPaths {
		p := path.New(labels...)
		fmt.Fprintf(&got, "%q", labels)
		for _, n := range []int{2, 4, 8, 16} {
			fmt.Fprintf(&got, " %d", provstore.ShardFor(p, n))
		}
		got.WriteByte('\n')
	}
	const file = "testdata/shardfor_golden.txt"
	if *updateShardGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("%d lines, golden file has %d", len(gl), len(wl))
	}
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Errorf("line %d: got %s, want %s", i+1, gl[i], wl[i])
		}
	}
}
