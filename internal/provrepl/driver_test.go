package provrepl

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/path"
	_ "repro/internal/provhttp" // cpdb://
	"repro/internal/provstore"
	_ "repro/internal/relprov" // rel://
)

// TestDriverOpen: the replicated:// scheme composes nested DSNs and carries
// the routing options through.
func TestDriverOpen(t *testing.T) {
	b, err := provstore.OpenDSN("replicated://?primary=mem://&replica=mem://&replica=mem://&read=any&poll=20ms")
	if err != nil {
		t.Fatal(err)
	}
	rb, ok := b.(*ReplicatedBackend)
	if !ok {
		t.Fatalf("OpenDSN returned %T, want *ReplicatedBackend", b)
	}
	defer rb.Close()
	if len(rb.replicas) != 2 {
		t.Errorf("replicas = %d, want 2", len(rb.replicas))
	}
	if rb.opts.Read != readAny {
		t.Errorf("read policy = %v, want any", rb.opts.Read)
	}
	ctx := context.Background()
	if err := rb.Append(ctx, []provstore.Record{{Tid: 1, Op: provstore.OpInsert, Loc: path.New("T", "x")}}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rb)
	for i, r := range rb.replicas {
		st, err := r.store.Stat(ctx)
		n := st.Count
		if err != nil || n != 1 {
			t.Errorf("replica %d count = %d, %v; want 1", i, n, err)
		}
	}
}

// TestDriverOpenSharded: a nested DSN carrying its own parameters
// (URL-escaped) opens correctly — replication over a sharded store.
func TestDriverOpenSharded(t *testing.T) {
	b, err := provstore.OpenDSN("replicated://?primary=mem%3A%2F%2F%3Fshards%3D4&replica=mem://")
	if err != nil {
		t.Fatal(err)
	}
	rb := b.(*ReplicatedBackend)
	defer rb.Close()
	if _, ok := rb.Inner().(*provstore.ShardedBackend); !ok {
		t.Fatalf("primary is %T, want *ShardedBackend", rb.Inner())
	}
}

// TestDriverErrors: malformed replicated:// DSNs fail at open time with a
// message naming the problem.
func TestDriverErrors(t *testing.T) {
	cases := []struct {
		dsn  string
		want string
	}{
		{"replicated://x?primary=mem://&replica=mem://", "have no path"},
		{"replicated://?replica=mem://", "needs a primary"},
		{"replicated://?primary=mem://", "at least one replica"},
		{"replicated://?primary=mem://&replica=mem://&read=sometimes", "not primary or any"},
		{"replicated://?primary=mem://&replica=mem://&lag=1", "unknown parameter"},
		{"replicated://?primary=mem://&replica=mem://&poll=fast", "not a positive duration"},
		{"replicated://?primary=mem://&replica=mem://&bogus=1", "unknown parameter"},
		{"replicated://?primary=nosuch://&replica=mem://", "primary"},
		{"replicated://?primary=mem://&replica=nosuch://", "replica 0"},
	}
	for _, c := range cases {
		_, err := provstore.OpenDSN(c.dsn)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("OpenDSN(%s) = %v, want error containing %q", c.dsn, err, c.want)
		}
	}
}

// TestDriverRepeatedParams: every built-in driver refuses a parameter given
// twice, other than shard and replica, before it opens anything: Param reads
// the first value alone, so rel://f.db?create=1&durable=0&durable=1 would
// otherwise open a store that is not durable.
func TestDriverRepeatedParams(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "f.db")
	for _, c := range []struct{ dsn, param string }{
		{"mem://?shards=2&shards=8", "shards"},
		{"rel://" + file + "?create=1&durable=0&durable=1", "durable"},
		{"rel://" + file + "?create=1&create=1", "create"},
		{"cpdb://127.0.0.1:1?timeout=1s&timeout=2s", "timeout"},
		{"replicated://?primary=mem://&primary=mem://&replica=mem://", "primary"},
		{"replicated://?primary=mem://&replica=mem://&read=any&read=primary", "read"},
		{"verified://?inner=mem://&inner=mem%3A%2F%2F%3Fshards%3D2", "inner"},
	} {
		_, err := provstore.OpenDSN(c.dsn)
		if err == nil || !strings.Contains(err.Error(), `parameter "`+c.param+`" is given 2 times`) {
			t.Errorf("OpenDSN(%q) = %v, want the repeated %s refused", c.dsn, err, c.param)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("a refused rel:// DSN left %v (%v) behind", entries, err)
	}
	// replica, like shard, names one store per value.
	b, err := provstore.OpenDSN("replicated://?primary=mem://&replica=mem://&replica=mem://")
	if err != nil {
		t.Fatal(err)
	}
	provstore.Close(b)
}
