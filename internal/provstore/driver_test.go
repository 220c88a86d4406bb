package provstore

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/path"
)

func TestParseDSNTable(t *testing.T) {
	cases := []struct {
		in     string
		scheme string
		path   string
		params map[string]string
		bad    bool
	}{
		{in: "mem://", scheme: "mem", path: ""},
		{in: "mem://?shards=8", scheme: "mem", params: map[string]string{"shards": "8"}},
		{in: "rel://prov.db", scheme: "rel", path: "prov.db"},
		{in: "rel:///abs/path/prov.db?create=1&durable=1", scheme: "rel", path: "/abs/path/prov.db",
			params: map[string]string{"create": "1", "durable": "1"}},
		{in: "rel://dir%3Fodd/p.db", scheme: "rel", path: "dir?odd/p.db"},
		{in: "sharded://?shard=mem://&shard=mem%3A%2F%2F%3Fshards%3D2", scheme: "sharded",
			params: map[string]string{"shard": "mem://"}},
		{in: "x-test+v1.0://anything", scheme: "x-test+v1.0", path: "anything"},
		// Network authority forms: host:port travels as the DSN path.
		{in: "cpdb://10.0.0.5:7070", scheme: "cpdb", path: "10.0.0.5:7070"},
		{in: "cpdb://curation.example.org:7070?timeout=5s", scheme: "cpdb",
			path: "curation.example.org:7070", params: map[string]string{"timeout": "5s"}},
		{in: "cpdb://[::1]:7070", scheme: "cpdb", path: "[::1]:7070"},
		{in: "cpdb://[2001:db8::42]:443", scheme: "cpdb", path: "[2001:db8::42]:443"},
		// Bad inputs.
		{in: "", bad: true},
		{in: "mem", bad: true},            // no ://
		{in: "://path", bad: true},        // empty scheme
		{in: "1mem://", bad: true},        // scheme starts with a digit
		{in: "me m://", bad: true},        // space in scheme
		{in: "mem://?a=%zz", bad: true},   // bad query escaping
		{in: "rel://p%zz.db", bad: true},  // bad path escaping
		{in: "mem:/not-a-dsn", bad: true}, // single slash
		{in: "mem//missing-colon", bad: true},
	}
	for _, c := range cases {
		dsn, err := ParseDSN(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseDSN(%q): want error, got %+v", c.in, dsn)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDSN(%q): %v", c.in, err)
			continue
		}
		if dsn.Scheme != c.scheme {
			t.Errorf("ParseDSN(%q).Scheme = %q, want %q", c.in, dsn.Scheme, c.scheme)
		}
		if dsn.Path != c.path {
			t.Errorf("ParseDSN(%q).Path = %q, want %q", c.in, dsn.Path, c.path)
		}
		for k, v := range c.params {
			if got := dsn.Param(k); got != v {
				t.Errorf("ParseDSN(%q).Param(%q) = %q, want %q", c.in, k, got, v)
			}
		}
		if dsn.String() != c.in {
			t.Errorf("ParseDSN(%q).String() = %q", c.in, dsn.String())
		}
	}
}

func TestDSNHostPort(t *testing.T) {
	cases := []struct {
		in         string
		host, port string
		bad        bool
	}{
		{in: "cpdb://host:7070", host: "host", port: "7070"},
		{in: "cpdb://10.0.0.5:7070", host: "10.0.0.5", port: "7070"},
		{in: "cpdb://[::1]:7070", host: "::1", port: "7070"},
		{in: "cpdb://[2001:db8::42]:443", host: "2001:db8::42", port: "443"},
		{in: "cpdb://localhost:0", host: "localhost", port: "0"},
		// Bad authorities.
		{in: "cpdb://", bad: true},           // empty
		{in: "cpdb://hostonly", bad: true},   // no port
		{in: "cpdb://host:", bad: true},      // empty port
		{in: "cpdb://:7070", bad: true},      // empty host
		{in: "cpdb://::1:7070", bad: true},   // unbracketed IPv6
		{in: "cpdb://h:70/extra", bad: true}, // trailing path
		{in: "cpdb://h:70:71", bad: true},    // two colons
		{in: "cpdb://[::1]", bad: true},      // bracketed host, no port
	}
	for _, c := range cases {
		dsn, err := ParseDSN(c.in)
		if err != nil {
			t.Errorf("ParseDSN(%q): %v", c.in, err)
			continue
		}
		host, port, err := dsn.HostPort()
		if c.bad {
			if err == nil {
				t.Errorf("HostPort(%q) = %q,%q; want error", c.in, host, port)
			}
			continue
		}
		if err != nil {
			t.Errorf("HostPort(%q): %v", c.in, err)
			continue
		}
		if host != c.host || port != c.port {
			t.Errorf("HostPort(%q) = %q,%q; want %q,%q", c.in, host, port, c.host, c.port)
		}
	}
}

// TestRegisterDriverPanics: the registry must reject nil drivers, malformed
// schemes, and duplicate registrations loudly, like database/sql.Register.
func TestRegisterDriverPanics(t *testing.T) {
	ok := DriverFunc(func(DSN) (Backend, error) { return NewMemBackend(), nil })
	RegisterDriver("panictest", ok) // taken: the duplicate case below trips on it
	cases := []struct {
		name   string
		scheme string
		d      Driver
	}{
		{"nil driver", "panictest-nil", nil},
		{"empty scheme", "", ok},
		{"digit-led scheme", "1mem", ok},
		{"scheme with space", "me m", ok},
		{"scheme with slash", "me/m", ok},
		{"duplicate scheme", "panictest", ok},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterDriver(%q) did not panic", c.scheme)
				}
			}()
			RegisterDriver(c.scheme, c.d)
		})
	}
}

// TestRegisterDriverConcurrent registers many schemes from concurrent
// goroutines while readers resolve and enumerate — the registry must be
// race-free (this test is load-bearing under -race) and lose nothing.
func TestRegisterDriverConcurrent(t *testing.T) {
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			RegisterDriver(fmt.Sprintf("conctest%d", i),
				DriverFunc(func(DSN) (Backend, error) { return NewMemBackend(), nil }))
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			Drivers()               // concurrent enumeration
			OpenDSN("mem://")       //nolint:errcheck // concurrent resolution
			OpenDSN("conctest0://") //nolint:errcheck // may or may not exist yet
		}()
	}
	wg.Wait()
	registered := make(map[string]bool)
	for _, s := range Drivers() {
		registered[s] = true
	}
	for i := 0; i < n; i++ {
		scheme := fmt.Sprintf("conctest%d", i)
		if !registered[scheme] {
			t.Errorf("scheme %s lost in concurrent registration", scheme)
		}
		if _, err := OpenDSN(scheme + "://"); err != nil {
			t.Errorf("OpenDSN(%s://): %v", scheme, err)
		}
	}
}

func TestEscapeDSNPathRoundTrip(t *testing.T) {
	for _, p := range []string{
		"/plain/path.db",
		"relative/p.db",
		"with space.db",
		"odd?query.db",
		"percent%sign.db",
		"hash#mark.db",
	} {
		dsn, err := ParseDSN("rel://" + EscapeDSNPath(p) + "?create=1")
		if err != nil {
			t.Fatalf("round trip %q: %v", p, err)
		}
		if dsn.Path != p {
			t.Errorf("round trip %q: got path %q", p, dsn.Path)
		}
		if dsn.Param("create") != "1" {
			t.Errorf("round trip %q: lost params", p)
		}
	}
}

func TestDSNParamHelpers(t *testing.T) {
	dsn, err := ParseDSN("mem://?flag&on=1&off=0&n=7&junk=maybe&notnum=x")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := dsn.BoolParam("flag"); err != nil || !b {
		t.Errorf("bare flag: %v %v", b, err)
	}
	if b, err := dsn.BoolParam("on"); err != nil || !b {
		t.Errorf("on: %v %v", b, err)
	}
	if b, err := dsn.BoolParam("off"); err != nil || b {
		t.Errorf("off: %v %v", b, err)
	}
	if b, err := dsn.BoolParam("absent"); err != nil || b {
		t.Errorf("absent: %v %v", b, err)
	}
	if _, err := dsn.BoolParam("junk"); err == nil {
		t.Error("junk boolean accepted")
	}
	if n, err := dsn.intParam("n", 3); err != nil || n != 7 {
		t.Errorf("n: %v %v", n, err)
	}
	if n, err := dsn.intParam("absent", 3); err != nil || n != 3 {
		t.Errorf("absent int: %v %v", n, err)
	}
	if _, err := dsn.intParam("notnum", 0); err == nil {
		t.Error("notnum accepted")
	}
}

func TestOpenDSNMem(t *testing.T) {
	b, err := OpenDSN("mem://")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*MemBackend); !ok {
		t.Fatalf("mem:// opened %T", b)
	}

	sb, err := OpenDSN("mem://?shards=4")
	if err != nil {
		t.Fatal(err)
	}
	sharded, ok := sb.(*ShardedBackend)
	if !ok {
		t.Fatalf("mem://?shards=4 opened %T", sb)
	}
	if n := len(sharded.Below()); n != 4 {
		t.Fatalf("got %d shards", n)
	}

	for _, bad := range []string{
		"mem://somewhere",   // mem has no path
		"mem://?shards=0",   // shard count must be >= 1
		"mem://?shards=two", // not an integer
		"mem://?sharrds=4",  // typo'd parameter
		"nosuch://",         // unregistered scheme
		"mem",               // unparseable
	} {
		if _, err := OpenDSN(bad); err == nil {
			t.Errorf("OpenDSN(%q) succeeded", bad)
		}
	}
}

func TestOpenDSNShardedComposite(t *testing.T) {
	ctx := context.Background()
	b, err := OpenDSN("sharded://?shard=mem://&shard=mem://&shard=mem://")
	if err != nil {
		t.Fatal(err)
	}
	sb := b.(*ShardedBackend)
	if n := len(sb.Below()); n != 3 {
		t.Fatalf("got %d shards", n)
	}
	// The composed store works like any other backend.
	if err := b.Append(ctx, []Record{
		{Tid: 1, Op: OpInsert, Loc: path.MustParse("T/a")},
		{Tid: 1, Op: OpInsert, Loc: path.MustParse("T/b")},
		{Tid: 1, Op: OpInsert, Loc: path.MustParse("T/c")},
	}); err != nil {
		t.Fatal(err)
	}
	if st, _ := b.Stat(ctx); st.Count != 3 {
		t.Fatalf("count = %d", st.Count)
	}

	// Explicit per-shard DSNs.
	b2, err := OpenDSN("sharded://?shard=mem://&shard=mem://")
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.(*ShardedBackend).Below()) != 2 {
		t.Fatal("explicit shard list miscounted")
	}

	for _, bad := range []string{
		"sharded://",                                       // no shards named
		"sharded://p",                                      // no path allowed
		"sharded://?shards=2&shard=mem://",                 // the template spelling is gone
		"sharded://?shards=2&each=mem://",                  // … in full
		"sharded://?shard=nosuch://",                       // unknown inner scheme
		"sharded://?shard=rel://one.db&shard=rel://one.db", // two shards sharing one file
	} {
		if _, err := OpenDSN(bad); err == nil {
			t.Errorf("OpenDSN(%q) succeeded", bad)
		}
	}
	// A store named twice is refused before any shard opens, naming both —
	// a file or a daemon, or one nested in a decorator's DSN.
	for _, shared := range []string{
		"cpdb://h:1",
		"x://?inner=rel%3A%2F%2Fone.db",
	} {
		dsn := "sharded://?shard=mem://&shard=" + url.QueryEscape(shared) + "&shard=" + url.QueryEscape(shared)
		if _, err := OpenDSN(dsn); err == nil || !strings.Contains(err.Error(), "shards 1 and 2 would share one store") {
			t.Errorf("OpenDSN(%q) = %v, want the shared store refused", dsn, err)
		}
	}
	// A DSN that makes a store of its own on every open may repeat.
	for _, s := range []string{"mem://", "mem://?shards=2", "x://?inner=mem%3A%2F%2F"} {
		if !opensFresh(s) {
			t.Errorf("opensFresh(%q) = false", s)
		}
	}
}

// TestDSNRepeatedParams: a parameter given twice is refused, whichever
// driver reads it, except shard and replica, which name one store each.
// Param would read the first value alone, so a repeat would open a store
// other than the one the DSN appears to ask for.
func TestDSNRepeatedParams(t *testing.T) {
	for _, dsn := range []string{
		"mem://?shards=2&shards=8",
		"mem://?shards=2&shards=2",
	} {
		_, err := OpenDSN(dsn)
		if err == nil || !strings.Contains(err.Error(), `parameter "shards" is given 2 times`) {
			t.Errorf("OpenDSN(%q) = %v, want the repeat refused", dsn, err)
		}
	}
	d, err := ParseDSN("x://?shard=a&shard=b&replica=c&replica=d&once=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RejectUnknownParams("shard", "replica", "once"); err != nil {
		t.Errorf("shard and replica may repeat: %v", err)
	}
}

func TestRegisterDriverThirdParty(t *testing.T) {
	opened := 0
	RegisterDriver("drvtest", DriverFunc(func(dsn DSN) (Backend, error) {
		opened++
		if dsn.Param("fail") == "1" {
			return nil, errors.New("drvtest: asked to fail")
		}
		return NewMemBackend(), nil
	}))
	found := false
	for _, s := range Drivers() {
		if s == "drvtest" {
			found = true
		}
	}
	if !found {
		t.Fatalf("drvtest not listed in %v", Drivers())
	}
	if _, err := OpenDSN("drvtest://"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDSN("drvtest://?fail=1"); err == nil || !strings.Contains(err.Error(), "asked to fail") {
		t.Fatalf("driver error not surfaced: %v", err)
	}
	if opened != 2 {
		t.Fatalf("driver opened %d times", opened)
	}
	// Duplicate registration panics, like database/sql.
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterDriver did not panic")
		}
	}()
	RegisterDriver("drvtest", DriverFunc(func(DSN) (Backend, error) { return nil, nil }))
}
