package main

import (
	"encoding/binary"
	"sort"
	"time"

	cpdb "repro"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; it sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// recHash is an order-sensitive FNV-1a digest of a record stream. It
// allocates nothing per record, so a consumer can hash while it drains
// without its own cost showing in the drain's allocation counts.
type recHash struct {
	sum uint64
	n   int
	buf []byte
}

func newRecHash() *recHash { return &recHash{sum: 14695981039346656037} }

func (h *recHash) add(r cpdb.Record) {
	b := binary.AppendVarint(h.buf[:0], r.Tid)
	b = append(b, byte(r.Op))
	b = r.Loc.AppendBinary(b)
	b = r.Src.AppendBinary(b)
	sum := h.sum
	for _, c := range b {
		sum = (sum ^ uint64(c)) * 1099511628211
	}
	h.sum, h.buf = sum, b
	h.n++
}

// digest is what two record streams must agree on: how many records, in
// which order, with which contents.
type digest struct {
	Count int
	Sum   uint64
}

func (h *recHash) digest() digest { return digest{h.n, h.sum} }
