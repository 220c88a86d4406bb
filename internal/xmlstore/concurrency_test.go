package xmlstore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/figures"
	"repro/internal/path"
	"repro/internal/tree"
)

// TestStoreConcurrent exercises the store under one writer and parallel
// readers (run with -race).
func TestStoreConcurrent(t *testing.T) {
	s := NewMem("T", figures.T0())
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: grows and shrinks a private region.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			label := fmt.Sprintf("w%d", i)
			if err := s.Insert(path.MustParse("T"), label, tree.NewLeaf("v")); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if i%2 == 0 {
				if err := s.Delete(path.MustParse("T").Child(label)); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
		close(stop)
	}()

	// Readers over the stable region.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n, err := s.Get(path.MustParse("T/c1/x")); err != nil || n.Value() != "1" {
					t.Errorf("reader: %v, %v", n, err)
					return
				}
				s.Has(path.MustParse("T/c5"))
				_ = s.Snapshot()
			}
		}()
	}
	wg.Wait()
	// Net effect of the writer: odd-numbered labels survive.
	if !s.Has(path.MustParse("T/w1")) || s.Has(path.MustParse("T/w0")) {
		t.Error("writer results wrong")
	}
}
