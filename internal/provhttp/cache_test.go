package provhttp_test

// The caching layer's correctness surface: caching is an optimization and
// must never change an answer. Round-trip counting proves the caches are
// actually used (a repeated read is zero further endpoint hits); the
// coherence tests pin the generation contract (own appends invalidate
// immediately, foreign appends invalidate exactly when a higher MaxTid is
// observed); and the interleaved-workload property test drives the seeded
// §4.1 editor mix through a cached client over every backend shape —
// verified:// inner and a pinned verifying client included — requiring the
// cached, uncached and pinned views to render byte-identically at every
// horizon after every append round.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/path"
	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/wrapper"
	"repro/internal/xmlstore"

	_ "repro/internal/provauth" // registers the verified:// driver
	_ "repro/internal/provrepl" // registers the replicated:// driver
	_ "repro/internal/relprov"  // registers the rel:// driver
)

// cachedPair serves a mem store with both server caches on and opens one
// cached and one plain client against it.
func cachedPair(t *testing.T) (*provhttp.Server, *provhttp.Client, *provhttp.Client) {
	t.Helper()
	srv := provhttp.NewServer(provstore.NewMemBackend(),
		provhttp.WithPageCache(1<<20), provhttp.WithPlanCache(64))
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	open := func(params string) *provhttp.Client {
		b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String() + params)
		if err != nil {
			t.Fatalf("OpenDSN(%q): %v", params, err)
		}
		t.Cleanup(func() { b.(*provhttp.Client).Close() }) //nolint:errcheck // loopback teardown
		return b.(*provhttp.Client)
	}
	return srv, open("?cache=1mb"), open("")
}

// TestClientCacheSkipsRoundTrips: the second identical query is served
// locally — the endpoint counter on the server does not move.
func TestClientCacheSkipsRoundTrips(t *testing.T) {
	srv, cached, _ := cachedPair(t)
	ctx := context.Background()
	if err := cached.Append(ctx, []provstore.Record{
		rec(1, provstore.OpInsert, "T/a", ""),
		rec(1, provstore.OpCopy, "T/a/x", "S/x"),
	}); err != nil {
		t.Fatal(err)
	}

	read := func() {
		for _, text := range []string{"select where loc>=T", "trace T/a/x/deep"} {
			if _, err := provplan.Collect(ctx, cached, provplan.MustParse(text)); err != nil {
				t.Fatal(err)
			}
		}
	}
	read()
	before := srv.Stats()
	read()
	read()
	after := srv.Stats()
	for _, ep := range []string{"endpoint.scan", "endpoint.query"} {
		if d := after[ep] - before[ep]; d != 0 {
			t.Errorf("%s moved by %d on repeated reads; want 0 (served from cache)", ep, d)
		}
	}
	if hits, _ := cached.CacheStats(); hits < 4 {
		t.Errorf("cache hits = %d, want >= 4", hits)
	}
}

// found runs "select where loc=P" through cli and reports whether it
// answered a record.
func found(t *testing.T, cli *provhttp.Client, p string) bool {
	t.Helper()
	res, err := provplan.Collect(context.Background(), cli, provplan.MustParse("select where loc="+p))
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Records) > 0
}

// TestClientCacheInvalidatedByOwnAppend: a client's own append bumps its
// generation, so the next read refetches and sees the new state.
func TestClientCacheInvalidatedByOwnAppend(t *testing.T) {
	_, cached, _ := cachedPair(t)
	if found(t, cached, "T/late") {
		t.Fatal("select before append found a record")
	}
	if err := cached.Append(context.Background(), []provstore.Record{rec(1, provstore.OpInsert, "T/late", "")}); err != nil {
		t.Fatal(err)
	}
	if !found(t, cached, "T/late") {
		t.Fatal("select after own append found nothing; want the record (generation bumped)")
	}
}

// TestClientCacheInvalidatedByObservedMaxTid pins the coherence contract
// for foreign writes: a cached answer may trail another client's append
// until a higher MaxTid is observed, and must be refetched right after.
func TestClientCacheInvalidatedByObservedMaxTid(t *testing.T) {
	_, cached, plain := cachedPair(t)
	ctx := context.Background()
	if found(t, cached, "T/foreign") {
		t.Fatal("select on empty store found a record")
	}
	if err := plain.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "T/foreign", "")}); err != nil {
		t.Fatal(err)
	}
	// The cached client has not observed the new horizon: the stale
	// negative answer is, by contract, still served locally.
	if found(t, cached, "T/foreign") {
		t.Fatal("cached client saw a foreign append without observing its horizon")
	}
	if _, err := cached.Stat(ctx); err != nil {
		t.Fatal(err)
	}
	if !found(t, cached, "T/foreign") {
		t.Fatal("select after observing MaxTid found nothing; want the record")
	}
}

// TestCacheRejectedWithVerify: a proof-checked client must never serve
// answers from a local cache, so the DSN combination is refused outright.
func TestCacheRejectedWithVerify(t *testing.T) {
	_, err := provstore.OpenDSN("cpdb://127.0.0.1:7070?cache=1mb&verify=pin&pin=x")
	if err == nil || !strings.Contains(err.Error(), "cache") {
		t.Fatalf("OpenDSN(cache+verify) err = %v; want cache/verify rejection", err)
	}
	if _, err := provstore.OpenDSN("cpdb://127.0.0.1:7070?cache=banana"); err == nil {
		t.Fatal("OpenDSN accepted a malformed cache size")
	}
}

// TestServerPageCache: a limit-bounded scan page is cached by (horizon,
// keyset position) — the repeated request returns byte-identical NDJSON
// without re-reaching the handler's scan path, an append moves the horizon
// so the next request is a miss again, and unbounded drains bypass.
func TestServerPageCache(t *testing.T) {
	srv := provhttp.NewServer(provstore.NewMemBackend(), provhttp.WithPageCache(1<<20))
	hs := httptest.NewServer(srv)
	defer hs.Close()
	b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := b.(*provhttp.Client)
	defer cli.Close() //nolint:errcheck // loopback teardown
	ctx := context.Background()
	for tid := int64(1); tid <= 3; tid++ {
		recs := []provstore.Record{
			rec(tid, provstore.OpInsert, fmt.Sprintf("T/t%d/a", tid), ""),
			rec(tid, provstore.OpInsert, fmt.Sprintf("T/t%d/b", tid), ""),
		}
		if err := cli.Append(ctx, recs); err != nil {
			t.Fatal(err)
		}
	}

	get := func(query string) string {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/scan-all" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // test read
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", query, resp.StatusCode, err)
		}
		return string(body)
	}

	first := get("?limit=4")
	if srv.Stats()["cache.page.misses"] != 1 {
		t.Fatalf("page misses = %d after first page, want 1", srv.Stats()["cache.page.misses"])
	}
	if got := get("?limit=4"); got != first {
		t.Fatalf("cached page differs from first serve:\n%q\n%q", got, first)
	}
	if srv.Stats()["cache.page.hits"] != 1 {
		t.Fatalf("page hits = %d after repeat, want 1", srv.Stats()["cache.page.hits"])
	}
	if !strings.Contains(first, `"more":true`) {
		t.Fatalf("page terminator lost the more flag: %q", first)
	}

	// The resume page from a keyset position is its own cache entry.
	resume := get("?after_tid=2&after_loc=T/t2/b&limit=10")
	if get("?after_tid=2&after_loc=T/t2/b&limit=10") != resume {
		t.Fatal("cached resume page differs")
	}
	if !strings.Contains(resume, "T/t3/a") || strings.Contains(resume, "T/t2/b") {
		t.Fatalf("resume page content wrong: %q", resume)
	}

	// An append moves the horizon: the same page key is gone, the fresh
	// page is re-scanned (a miss), and its bytes match what an uncached
	// server would serve.
	if err := cli.Append(ctx, []provstore.Record{rec(4, provstore.OpInsert, "T/t4/a", "")}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := srv.Stats()["cache.page.hits"]
	fresh := get("?limit=4")
	if srv.Stats()["cache.page.hits"] != hitsBefore {
		t.Fatal("page served from cache across a horizon move")
	}
	if fresh != first {
		// Same first four records in (Tid, Loc) order; the page content is
		// identical even though it was re-scanned under the new horizon.
		t.Fatalf("first page changed across an append that lands after it:\n%q\n%q", fresh, first)
	}

	// A page bounded below MaxTid is keyed by MaxTid too: one batch may add
	// a record at or below the bound along with a newer transaction, and
	// the bounded page must then be read again.
	bounded := get("?until=2&limit=10")
	if err := cli.Append(ctx, []provstore.Record{
		rec(2, provstore.OpInsert, "T/t2/c", ""),
		rec(5, provstore.OpInsert, "T/t5/a", ""),
	}); err != nil {
		t.Fatal(err)
	}
	if again := get("?until=2&limit=10"); again == bounded || !strings.Contains(again, "T/t2/c") || strings.Contains(again, "T/t5/a") {
		t.Fatalf("bounded page after an append at its bound:\n%q\nbefore:\n%q", again, bounded)
	}

	// Unbounded drains stream past the cache: no new entries.
	entries := srv.Stats()["cache.page.entries"]
	get("")
	if srv.Stats()["cache.page.entries"] != entries {
		t.Fatal("unbounded scan populated the page cache")
	}
}

// TestPageCacheServesBothForms: a cached page is its frames, so one entry
// serves both forms of the stream. The first request of a page is the one
// miss; a repeat in either form, in either order, is a hit, and each body is
// the body an uncached server streams for that Accept header.
func TestPageCacheServesBothForms(t *testing.T) {
	inner := provstore.NewMemBackend()
	queryFixture(t, inner)
	streaming := httptest.NewServer(provhttp.NewServer(inner))
	defer streaming.Close()

	get := func(base, pathAndQuery, accept string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+pathAndQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // test read
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s\n%s", resp.StatusCode, resp.Header.Get("Content-Type"), raw)
	}
	forms := []string{"", provhttp.ContentTypeFrames}
	for i, order := range [][]string{forms, {forms[1], forms[0]}} {
		// A fresh cache per order, so each starts with its page's one miss.
		caching := provhttp.NewServer(inner, provhttp.WithPageCache(1<<20))
		cached := httptest.NewServer(caching)
		defer cached.Close()
		pq := fmt.Sprintf("/v1/scan?kind=all&limit=%d", 3+i)
		want := map[string]string{}
		for _, accept := range forms {
			want[accept] = get(streaming.URL, pq, accept)
		}
		if !strings.HasPrefix(want[""], "200 "+provhttp.ContentTypeNDJSON+"\n") ||
			!strings.HasPrefix(want[provhttp.ContentTypeFrames], "200 "+provhttp.ContentTypeFrames+"\n") {
			t.Fatalf("the uncached server does not answer each request in its form:\n%q\n%q", want[""], want[provhttp.ContentTypeFrames])
		}
		hits := int64(0)
		for _, accept := range append([]string{order[0]}, order...) {
			if got := get(cached.URL, pq, accept); got != want[accept] {
				t.Errorf("Accept %q: the page cache answered\n%q\nwant\n%q", accept, got, want[accept])
			}
			if st := caching.Stats(); st["cache.page.misses"] != 1 || st["cache.page.hits"] != hits {
				t.Fatalf("Accept %q after %v: %d misses and %d hits, want 1 and %d", accept, order,
					st["cache.page.misses"], st["cache.page.hits"], hits)
			}
			hits++
		}
	}
}

// TestPageCacheNonUTF8Path: a page holding a path no JSON line can carry
// is cached as its frames and served in them, while a bare request of it is
// a 500 naming the path — on the miss and on the hit alike, as a page's
// failure is wherever it falls.
func TestPageCacheNonUTF8Path(t *testing.T) {
	inner := provstore.NewMemBackend()
	recs := []provstore.Record{
		{Tid: 1, Op: provstore.OpInsert, Loc: path.New("T", "a")},
		{Tid: 1, Op: provstore.OpInsert, Loc: path.New("T", "a\xffb")},
	}
	if err := inner.Append(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	caching := provhttp.NewServer(inner, provhttp.WithPageCache(1<<20))
	cached := httptest.NewServer(caching)
	defer cached.Close()
	for i, accept := range []string{"", "", provhttp.ContentTypeFrames} {
		req, err := http.NewRequest(http.MethodGet, cached.URL+"/v1/scan?kind=all&limit=5", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // test read
		lines, end := provhttp.ReadStream(io.NopCloser(strings.NewReader(string(raw))), resp.Header.Get("Content-Type"))
		switch {
		case accept == "" && (resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(raw), `not valid UTF-8`)):
			t.Errorf("bare request %d: %d %q; want a 500 naming the path", i, resp.StatusCode, raw)
		case accept != "" && (resp.StatusCode != http.StatusOK || len(lines) != 2 || end != "eof n=2 more=false"):
			t.Errorf("framed request: %d, %d lines, %s; want both records", resp.StatusCode, len(lines), end)
		}
	}
	if st := caching.Stats(); st["cache.page.misses"] != 1 || st["cache.page.hits"] != 2 {
		t.Errorf("%d misses and %d hits, want 1 and 2", st["cache.page.misses"], st["cache.page.hits"])
	}
}

// TestServerPlanCache: the second identical /v1/query compiles nothing —
// one plan serves both — and analyze queries never share cached plans.
func TestServerPlanCache(t *testing.T) {
	srv, cached, plain := cachedPair(t)
	ctx := context.Background()
	if err := plain.Append(ctx, []provstore.Record{
		rec(1, provstore.OpInsert, "T/a", ""),
		rec(2, provstore.OpCopy, "T/b", "T/a"),
	}); err != nil {
		t.Fatal(err)
	}
	q := provplan.MustParse("select where loc>=T order tid-loc")
	first, err := provplan.Collect(ctx, plain, q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := provplan.Collect(ctx, plain, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", first) != fmt.Sprintf("%+v", again) {
		t.Fatalf("plan-cached answer differs:\n%+v\n%+v", first, again)
	}
	if srv.Stats()["cache.plan.hits"] == 0 {
		t.Fatal("repeated /v1/query never hit the plan cache")
	}

	// An analyze execution taps operators per run: it must not be served
	// by (or poison) the shared plan, and its trailer must still arrive.
	az := *q
	az.Analyze = true
	res, err := provplan.Collect(ctx, cached, &az)
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis == nil {
		t.Fatal("analyze query lost its trailer behind the plan cache")
	}
}

// --- interleaved-workload equivalence across every backend shape ---

const (
	cacheEquivSeed = 43
	cacheEquivOps  = 45
)

func cacheEquivTarget() *tree.Node {
	return dataset.GenMiMI(dataset.MiMIConfig{Entries: 10, MaxPTMs: 2, MaxCitations: 2, MaxInteracts: 2, Seed: 9})
}

func cacheEquivSource() *tree.Node {
	return dataset.GenOrganelleTree(dataset.OrganelleConfig{Proteins: 10, Seed: 10})
}

// cacheEquivInners lists the inner store of the daemon under test: every
// backend shape the conformance suite knows, including the authenticated
// verified:// store (whose pinned clients are the one reader that must
// bypass caching entirely).
func cacheEquivInners() map[string]func(t *testing.T) provstore.Backend {
	openDSN := func(dsn string) func(t *testing.T) provstore.Backend {
		return func(t *testing.T) provstore.Backend {
			b, err := provstore.OpenDSN(dsn)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { provstore.Close(b) }) //nolint:errcheck // test teardown
			return b
		}
	}
	return map[string]func(t *testing.T) provstore.Backend{
		"mem":      openDSN("mem://"),
		"sharded":  openDSN("mem://?shards=4"),
		"batching": func(t *testing.T) provstore.Backend { return provstore.NewBatching(provstore.NewMemBackend(), 8) },
		"rel": func(t *testing.T) provstore.Backend {
			return openDSN("rel://" + filepath.Join(t.TempDir(), "prov.rel") + "?create=1")(t)
		},
		"replicated": openDSN("replicated://?primary=mem://&replica=mem://&read=any"),
		"verified":   openDSN("verified://?inner=mem%3A%2F%2F"),
	}
}

// cacheEquivProbes samples stored locations plus never-touched ones.
func cacheEquivProbes(t *testing.T, b provstore.Backend) []path.Path {
	t.Helper()
	recs, err := provstore.CollectScan(b.Scan(context.Background(), provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]path.Path{}
	for _, r := range recs {
		seen[r.Loc.String()] = r.Loc
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Fatal("workload stored nothing")
	}
	stride := max(1, len(keys)/5)
	var out []path.Path
	for i := 0; i < len(keys); i += stride {
		out = append(out, seen[keys[i]])
	}
	return append(out, path.MustParse("MiMI/never/was"))
}

// TestCacheEquivalenceInterleaved is the satellite property test: the
// seeded editor workload is applied in rounds through a caching client,
// and after every round the cached view, the uncached view and (over a
// verified:// store) the pinned verifying view must render byte-identically
// — for declarative queries at every horizon up to MaxTid, for point
// lookups, and across a repeat pass that is served from the cache.
func TestCacheEquivalenceInterleaved(t *testing.T) {
	gen := workload.New(workload.Config{
		Pattern:    workload.Mix,
		Deletion:   workload.DelMix,
		Seed:       cacheEquivSeed,
		TargetName: "MiMI",
		SourceName: "OrganelleDB",
	}, cacheEquivTarget(), cacheEquivSource())
	seq := gen.Sequence(cacheEquivOps)

	for name, openInner := range cacheEquivInners() {
		t.Run(name, func(t *testing.T) {
			hs := httptest.NewServer(provhttp.NewServer(openInner(t),
				provhttp.WithPageCache(1<<20), provhttp.WithPlanCache(64)))
			t.Cleanup(hs.Close)
			open := func(params string) *provhttp.Client {
				b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String() + params)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.(*provhttp.Client).Close() }) //nolint:errcheck // teardown
				return b.(*provhttp.Client)
			}
			cached, plain := open("?cache=1mb"), open("")
			var pinned *provhttp.Client
			if name == "verified" {
				pinFile := filepath.Join(t.TempDir(), "pin")
				pinned = open("?verify=pin&pin=" + provstore.EscapeDSNPath(pinFile))
			}

			// The editor writes through the caching client: its own appends
			// must invalidate its cache, or the next round's reads go stale.
			ed, err := core.NewEditor(core.Config{
				Target:          wrapper.NewXMLTarget(xmlstore.NewMem("MiMI", cacheEquivTarget())),
				Sources:         []wrapper.Source{wrapper.NewXMLTarget(xmlstore.NewMem("OrganelleDB", cacheEquivSource()))},
				Tracker:         provstore.MustNew(provstore.HierTrans, provstore.Config{Backend: cached}),
				AutoCommitEvery: 5,
			})
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			render := func(cli *provhttp.Client, text string) string {
				t.Helper()
				res, err := provplan.Collect(ctx, cli, provplan.MustParse(text))
				if err != nil {
					// Deleted-by-horizon probes have a defined error answer;
					// equivalence then means the same error text. Each
					// round trip stamps its own trace id — strip it.
					msg := err.Error()
					if i := strings.Index(msg, " [trace "); i >= 0 {
						if j := strings.Index(msg[i:], "]"); j >= 0 {
							msg = msg[:i] + msg[i+j+1:]
						}
					}
					return "err: " + msg
				}
				return fmt.Sprintf("%+v", res)
			}

			chunk := len(seq) / 3
			for round := 0; round < 3; round++ {
				part := seq[round*chunk : (round+1)*chunk]
				if _, err := ed.ApplySequence(part); err != nil {
					t.Fatal(err)
				}
				if _, err := ed.Commit(); err != nil && !errors.Is(err, provstore.ErrNoTxn) {
					t.Fatal(err)
				}
				if err := cached.Flush(context.Background()); err != nil {
					t.Fatal(err)
				}
				st, err := plain.Stat(ctx)
				maxTid := st.MaxTid
				if err != nil {
					t.Fatal(err)
				}
				probes := cacheEquivProbes(t, plain)

				var texts []string
				for h := int64(1); h <= maxTid; h++ {
					texts = append(texts,
						fmt.Sprintf("trace %s asof %d", probes[0], h),
						fmt.Sprintf("hist %s asof %d", probes[len(probes)/2], h),
						fmt.Sprintf("select where tid<=%d order tid-loc", h),
					)
				}
				for _, p := range probes {
					texts = append(texts,
						fmt.Sprintf("mod %s asof %d", p, maxTid),
						fmt.Sprintf("src %s asof %d", p, maxTid),
					)
				}
				texts = append(texts, "select count", "select max-tid")

				for _, text := range texts {
					want := render(plain, text)
					if got := render(cached, text); got != want {
						t.Fatalf("round %d: %s:\ncached %s\nplain  %s", round, text, got, want)
					}
					// Second pass: the cached client now replays locally.
					if got := render(cached, text); got != want {
						t.Fatalf("round %d: %s: cache replay differs:\n%s", round, text, want)
					}
					if pinned != nil {
						if got := render(pinned, text); got != want {
							t.Fatalf("round %d: %s:\npinned %s\nplain  %s", round, text, got, want)
						}
					}
				}

				for _, p := range probes {
					for _, tid := range []int64{1, maxTid} {
						gr, gok, gerr := provstore.Lookup(ctx, cached, tid, p)
						wr, wok, werr := provstore.Lookup(ctx, plain, tid, p)
						if (gerr == nil) != (werr == nil) || gok != wok || fmt.Sprint(gr) != fmt.Sprint(wr) {
							t.Fatalf("round %d: Lookup(%d, %s): cached (%v,%v,%v) plain (%v,%v,%v)",
								round, tid, p, gr, gok, gerr, wr, wok, werr)
						}
						gr, gok, gerr = provstore.NearestAncestor(ctx, cached, tid, p)
						wr, wok, werr = provstore.NearestAncestor(ctx, plain, tid, p)
						if (gerr == nil) != (werr == nil) || gok != wok || fmt.Sprint(gr) != fmt.Sprint(wr) {
							t.Fatalf("round %d: NearestAncestor(%d, %s): cached (%v,%v,%v) plain (%v,%v,%v)",
								round, tid, p, gr, gok, gerr, wr, wok, werr)
						}
					}
				}
			}

			if hits, misses := cached.CacheStats(); hits == 0 || misses == 0 {
				t.Fatalf("cache hits=%d misses=%d: the property test never exercised the cache", hits, misses)
			}
		})
	}
}

// TestParseSizeBytes pins the sizes cpdbd's -cache-bytes and the cpdb://
// DSN's cache= option accept, and that a size past int64 is refused rather
// than wrapped round to a negative one.
func TestParseSizeBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64 // 0: refused
	}{
		{"1", 1},
		{"4096", 4096},
		{"64kb", 64 << 10},
		{"64KB", 64 << 10},
		{"3mb", 3 << 20},
		{"3Mb", 3 << 20},
		{"2gb", 2 << 30},
		{"2GB", 2 << 30},
		{"0", 0},
		{"0kb", 0},
		{"-1", 0},
		{"-5mb", 0},
		{"", 0},
		{"kb", 0},
		{"1.5mb", 0},
		{"12tb", 0},
		{"9000000000gb", 0},
		{"8589934592gb", 0},
		{"9223372036854775808", 0},
		{"8796093022208mb", 0},
		{"9007199254740992kb", 0},
		{"8589934591gb", 8589934591 << 30},
		{"8796093022207mb", 8796093022207 << 20},
		{"9007199254740991kb", 9007199254740991 << 10},
		{"9223372036854775807", math.MaxInt64},
	} {
		got, err := provhttp.ParseSizeBytes(c.in)
		if c.want == 0 {
			if err == nil {
				t.Errorf("ParseSizeBytes(%q) = %d, want an error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseSizeBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}
