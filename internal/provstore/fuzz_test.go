package provstore

import (
	"context"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/path"
)

// FuzzParseDSN hammers the shared DSN grammar behind every backend driver:
// ParseDSN must never panic, any DSN it accepts must carry a scheme the
// registry would accept, the raw form must round-trip, and a path embedded
// with EscapeDSNPath must decode back to itself — the invariant that lets
// file paths containing "?", "%" or "#" ride inside rel:// DSNs.
//
// Run with: go test -fuzz FuzzParseDSN -fuzztime 10s ./internal/provstore
func FuzzParseDSN(f *testing.F) {
	// Every documented DSN form (README and driver docs) plus near-misses.
	for _, seed := range []string{
		"mem://",
		"mem://?shards=8",
		"rel://prov.db?create=1",
		"rel://prov.db?create=1&durable=1",
		"rel://dir/with%3Fmark/prov.db?durable=1",
		"rel://prov.db?create=1&durable=0&durable=1",
		"sharded://?shard=mem://&shard=mem://",
		"sharded://?shard=mem://&shard=mem://&shard=mem://&shard=mem://",
		"sharded://?shard=rel%3A%2F%2Fshard-0.db%3Fcreate%3D1&shard=rel%3A%2F%2Fshard-1.db%3Fcreate%3D1",
		"cpdb://127.0.0.1:7070",
		"cpdb://[::1]:7070",
		"replicated://?primary=mem://&replica=mem://&read=any&poll=20ms",
		"replicated://?primary=rel%3A%2F%2Fprov.db%3Fcreate%3D1&replica=mem://",
		"",
		"mem",
		"://nope",
		"99bad://x",
		"mem://?a=%zz",
		"mem://%zz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDSN(s)
		if err == nil {
			if !validScheme(d.Scheme) {
				t.Fatalf("ParseDSN(%q) accepted invalid scheme %q", s, d.Scheme)
			}
			if d.String() != s {
				t.Fatalf("ParseDSN(%q).String() = %q", s, d.String())
			}
			if d.Params == nil {
				t.Fatalf("ParseDSN(%q) returned nil Params", s)
			}
		}
		// Any string — DSN or not — must survive embedding as a DSN path.
		embedded := "rel://" + EscapeDSNPath(s)
		d2, err := ParseDSN(embedded)
		if err != nil {
			t.Fatalf("ParseDSN(%q) rejected an escaped path: %v", embedded, err)
		}
		if d2.Path != s {
			t.Fatalf("EscapeDSNPath round trip: %q -> %q -> path %q", s, embedded, d2.Path)
		}
	})
}

// FuzzScanSpec asserts ParseScanSpec — the decoder of GET /v1/scan's
// parameters, which come from outside the program — never panics; that what
// it accepts survives the round trip through Values unchanged; and that on a
// fixed store every record Scan yields for an accepted spec satisfies
// spec.Match, the stream strictly increasing under spec.Order.
//
// Run with: go test -fuzz FuzzScanSpec -fuzztime 10s ./internal/provstore
func FuzzScanSpec(f *testing.F) {
	for _, seed := range []string{
		"kind=all",
		"kind=all&after_tid=2&after_loc=",
		"kind=tid&tid=3",
		"kind=tid&tid=3&after_tid=3&after_loc=T/c1",
		"kind=loc&loc=T/c1/x",
		"kind=loc-prefix&loc=T",
		"kind=loc-prefix&loc=",
		"kind=loc-ancestors&loc=T/c1/x&after_tid=2&after_loc=T/c1",
		"",
		"kind=",
		"kind=everything",
		"kind=tid",
		"kind=tid&tid=x",
		"kind=all&tid=3",
		"kind=all&kind=tid&tid=1",
		"kind=loc&loc=T//x",
		"kind=all&after_tid=1",
		"kind=all&after_loc=T",
		"kind=all&limit=5",
		"kind=tid&tid=9223372036854775808",
		"kind=all&until=2",
		"kind=tid&tid=3&until=2",
		"kind=loc&loc=T/c1/x&after_tid=1&after_loc=T/c1/x&until=3",
		"kind=loc-prefix&loc=T&until=2",
		"kind=loc-ancestors&loc=T/c1/x&after_tid=2&after_loc=&until=3",
		"kind=all&until=-1",
		"kind=all&until=x",
		"kind=all&until=1&until=2",
		"kind=loc&loc=T/c1&after_tid=2&after_loc=T/c1&until=3",
		"kind=loc&loc=T/c1&after_tid=2&after_loc=T&until=3",
		"kind=loc-ancestors&loc=T/c1&after_tid=3&after_loc=&until=3",
		"kind=loc-prefix&loc=T&after_tid=3&after_loc=T/c1",
	} {
		f.Add(seed)
	}
	ctx := context.Background()
	b := NewMemBackend()
	for tid := int64(1); tid <= 4; tid++ {
		var recs []Record
		for _, loc := range []string{"S/a", "T", "T/c1", "T/c1/x", "T/c2"} {
			recs = append(recs, Record{Tid: tid, Op: OpInsert, Loc: path.MustParse(loc)})
		}
		if err := b.Append(ctx, recs); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		s, err := ParseScanSpec(q)
		if err != nil {
			return
		}
		if back, err := ParseScanSpec(s.Values()); err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("ParseScanSpec(%q) = %v; back through Values: %v, %v", raw, s, back, err)
		}
		var prev *Record
		for r, err := range b.Scan(ctx, s) {
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if !s.Match(r) {
				t.Fatalf("%v yielded %v, which it does not match", s, r)
			}
			if r.Tid < s.Floor() {
				t.Fatalf("%v yielded %v, older than its floor %d", s, r, s.Floor())
			}
			if prev != nil && s.Order()(*prev, r) >= 0 {
				t.Fatalf("%v yielded %v then %v: not strictly increasing", s, *prev, r)
			}
			prev = &r
		}
	})
}
