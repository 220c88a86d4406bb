package provstore

import (
	"context"

	"repro/internal/path"
)

// This file exposes the paper's §2.2 datalog views as direct predicates
// over a backend, with hierarchical inference applied:
//
//	Unch(t, p) ← ¬(∃x,q. Prov(t, x, p, q))
//	Ins(t, p)  ← Prov(t, I, p, ⊥)
//	Del(t, p)  ← Prov(t, D, p, ⊥)
//	Copy(t, p, q) ← Prov(t, C, p, q)
//	From(t, p, q) ← Copy(t, p, q);  From(t, p, p) ← Unch(t, p)
//
// They are convenience wrappers over Effective; provplan's trace/src/hist/mod
// batch the same resolutions for efficiency.

// Unch reports that location p was untouched by transaction t.
func Unch(ctx context.Context, b Backend, t int64, p path.Path) (bool, error) {
	_, ok, err := Effective(ctx, b, t, p)
	return !ok && err == nil, err
}

// Ins reports that location p was inserted by transaction t.
func Ins(ctx context.Context, b Backend, t int64, p path.Path) (bool, error) {
	rec, ok, err := Effective(ctx, b, t, p)
	return ok && rec.Op == OpInsert, err
}

// Del reports that location p was deleted by transaction t.
func Del(ctx context.Context, b Backend, t int64, p path.Path) (bool, error) {
	rec, ok, err := Effective(ctx, b, t, p)
	return ok && rec.Op == OpDelete, err
}

// Copy returns the source location p was copied from in transaction t, if
// it was copied.
func Copy(ctx context.Context, b Backend, t int64, p path.Path) (path.Path, bool, error) {
	rec, ok, err := Effective(ctx, b, t, p)
	if err != nil || !ok || rec.Op != OpCopy {
		return path.Root, false, err
	}
	return rec.Src, true, nil
}

// From returns where the data at p at the end of transaction t came from
// at the end of transaction t−1: the copy source if p was copied, p itself
// if p was unchanged, and ok=false if p was created or deleted by t (no
// predecessor).
func From(ctx context.Context, b Backend, t int64, p path.Path) (path.Path, bool, error) {
	rec, ok, err := Effective(ctx, b, t, p)
	if err != nil {
		return path.Root, false, err
	}
	if !ok {
		return p, true, nil // Unch
	}
	if rec.Op == OpCopy {
		return rec.Src, true, nil
	}
	return path.Root, false, nil // inserted or deleted: no predecessor
}
