package provrepl_test

import (
	"testing"

	"repro/internal/provstore"
	"repro/internal/provtest"
)

// TestConformance runs the shared backend conformance suite
// (internal/provtest) against a replicated store with read fan-out, where
// replica reads must be indistinguishable from primary reads — so the whole cursor contract
// (ordering, seeks, early break, cancellation) has to survive the
// composite driver's routing and failover plumbing.
func TestConformance(t *testing.T) {
	provtest.Conformance(t, func(t *testing.T) provstore.Backend {
		b, err := provstore.OpenDSN("replicated://?primary=mem://&replica=mem://&replica=mem://&read=any")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { provstore.Close(b) }) //nolint:errcheck // mem-backed teardown
		return b
	})
}
