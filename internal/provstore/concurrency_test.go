package provstore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/path"
	"repro/internal/update"
)

// TestMemBackendConcurrent exercises the backend under parallel writers and
// readers (run with -race).
func TestMemBackendConcurrent(t *testing.T) {
	b := NewMemBackend()
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tid := int64(w*perWriter + i + 1)
				recs := []Record{
					{Tid: tid, Op: OpInsert, Loc: path.New("T", fmt.Sprintf("w%d", w), fmt.Sprintf("n%d", i))},
				}
				if err := b.Append(context.Background(), recs); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers on all surfaces.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				loc := path.New("T", fmt.Sprintf("w%d", r), fmt.Sprintf("n%d", i%perWriter))
				Lookup(context.Background(), b, int64(i+1), loc)
				NearestAncestor(context.Background(), b, int64(i+1), loc.Child("deep"))
				CollectScan(b.Scan(context.Background(), ByTid(int64(i+1))))
				CollectScan(b.Scan(context.Background(), WithAncestors(loc)))
				b.Stat(context.Background())
			}
		}(r)
	}
	wg.Wait()
	st, err := b.Stat(context.Background())
	n := st.Count
	if err != nil || n != writers*perWriter {
		t.Fatalf("Count = %d, %v; want %d", n, err, writers*perWriter)
	}
	tids, _ := Tids(context.Background(), b)
	if len(tids) != writers*perWriter {
		t.Errorf("Tids = %d", len(tids))
	}
}

// TestShardedBackendConcurrent exercises the sharded backend under parallel
// writers and scatter-gather readers (run with -race): appends race across
// shards while readers exercise every fan-out query surface.
func TestShardedBackendConcurrent(t *testing.T) {
	b := NewShardedMem(4)
	const writers = 8
	const perWriter = 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tid := int64(w*perWriter + i + 1)
				recs := []Record{
					{Tid: tid, Op: OpInsert, Loc: path.New("T", fmt.Sprintf("w%d", w), fmt.Sprintf("n%d", i))},
					{Tid: tid, Op: OpCopy, Loc: path.New("T", fmt.Sprintf("w%d", w), fmt.Sprintf("c%d", i)), Src: path.New("S", "x")},
				}
				if err := b.Append(context.Background(), recs); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				loc := path.New("T", fmt.Sprintf("w%d", r), fmt.Sprintf("n%d", i%perWriter))
				Lookup(context.Background(), b, int64(i+1), loc)
				NearestAncestor(context.Background(), b, int64(i+1), loc.Child("deep"))
				CollectScan(b.Scan(context.Background(), ByTid(int64(i+1))))
				CollectScan(b.Scan(context.Background(), ByLoc(loc)))
				CollectScan(b.Scan(context.Background(), ByPrefix(path.New("T", fmt.Sprintf("w%d", r)))))
				CollectScan(b.Scan(context.Background(), WithAncestors(loc)))
				b.Stat(context.Background())
			}
		}(r)
	}
	wg.Wait()
	st, err := b.Stat(context.Background())
	n := st.Count
	if err != nil || n != 2*writers*perWriter {
		t.Fatalf("Count = %d, %v; want %d", n, err, 2*writers*perWriter)
	}
}

// TestShardedIngestConcurrent drives the full concurrent ingest pipeline
// under -race: worker goroutines write through one batched, sharded backend,
// each with its own tracker (transaction ids from a disjoint range) editing
// its own top-level subtree and committing periodically, with readers
// querying mid-flight.
func TestShardedIngestConcurrent(t *testing.T) {
	for _, m := range []Method{Naive, HierTrans} {
		t.Run(m.String(), func(t *testing.T) {
			backend := NewBatching(NewShardedMem(4), 16)
			const workers = 8
			const perWorker = 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					tr, err := New(m, Config{Backend: backend, StartTid: int64(1 + w*10*perWorker)})
					if err == nil {
						err = tr.Begin()
					}
					root := path.New("T", fmt.Sprintf("w%d", w))
					for i := 0; i < perWorker && err == nil; i++ {
						err = tr.OnInsert(update.Effect{Inserted: []path.Path{root.Child(fmt.Sprintf("n%d", i))}})
						if err == nil && (i+1)%5 == 0 {
							if _, err = tr.Commit(); err == nil && i+1 < perWorker {
								err = tr.Begin()
							}
						}
					}
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
					}
				}(w)
			}
			// Readers race the ingest across the read-through flush path.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						backend.Stat(context.Background())
						CollectScan(backend.Scan(context.Background(), ByPrefix(path.New("T"))))
					}
				}()
			}
			wg.Wait()
			if err := Flush(context.Background(), backend); err != nil {
				t.Fatal(err)
			}
			st, err := backend.Stat(context.Background())
			n := st.Count
			if err != nil || n != workers*perWorker {
				t.Fatalf("Count = %d, %v; want %d", n, err, workers*perWorker)
			}
			// Every record must be findable at its own location.
			for w := 0; w < workers; w++ {
				recs, err := CollectScan(backend.Scan(context.Background(), ByPrefix(path.New("T", fmt.Sprintf("w%d", w)))))
				if err != nil || len(recs) != perWorker {
					t.Fatalf("worker %d subtree has %d records, %v; want %d", w, len(recs), err, perWorker)
				}
			}
		})
	}
}

// TestBatchingBackendConcurrent races writers against the group-commit
// flush path (run with -race).
func TestBatchingBackendConcurrent(t *testing.T) {
	b := NewBatching(NewMemBackend(), 7)
	const writers = 6
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tid := int64(w*perWriter + i + 1)
				rec := Record{Tid: tid, Op: OpInsert, Loc: path.New("T", fmt.Sprintf("w%d", w), fmt.Sprintf("n%d", i))}
				if err := b.Append(context.Background(), []Record{rec}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, err := b.Stat(context.Background()); err != nil || st.Count != writers*perWriter {
		t.Fatalf("Count = %d, %v; want %d", st.Count, err, writers*perWriter)
	}
}
