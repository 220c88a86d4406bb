package provauth

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// An Anchor is the one rule by which a verifier admits a store's roots.
// The first root it sees is trusted on first use. Every later root must be
// connected to the anchored one by a consistency proof: either it extends
// the anchor, and becomes the anchor, or it is a prefix the anchor extends,
// as a root a concurrent reader snapshotted before another reader advanced
// the anchor is. A same-size root with a different hash is refused. The
// proof is what a store that rewrote or rolled back history cannot
// produce. The pinned cpdb:// client and the verified replica each hold
// one, so concurrent reads that race an advance are still checked against
// it: two answers from forked histories can never both be admitted.
//
// With a pin file the anchor starts from the file's root and persists
// every advance before adopting it, so across process restarts a verifier
// stays anchored to history it already accepted. Safe for concurrent use.
type Anchor struct {
	file string // the pin file; "" keeps the anchor in memory only

	mu     sync.Mutex
	loaded bool // the pin file has been read
	root   Root
	ok     bool // root holds an admitted root
}

// NewAnchor returns an anchor persisted at pin file file, or held in
// memory only when file is "". The file is read on first use.
func NewAnchor(file string) *Anchor {
	return &Anchor{file: file, loaded: file == ""}
}

// Root returns the anchored root; ok is false until a root is admitted.
func (a *Anchor) Root() (root Root, ok bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.load(); err != nil {
		return Root{}, false, err
	}
	return a.root, a.ok, nil
}

// Admit admits root, or fails and leaves the anchor where it was: wrapping
// ErrVerify when the roots do not connect, and with the cause when a proof
// cannot be fetched or the pin file cannot be read or written. The
// consistency proof connecting root to the anchor is fetched from auth and
// checked here, so auth need not be trusted. A caller that already holds
// audit, a proof that root extends since (a since= response's audit),
// passes both: the audit stands in for the fetch when since is still the
// anchor and root is not older than it. Otherwise pass the zero Root and
// nil. A root smaller than since is refused whatever the anchor holds: the
// request asked for history from since on, and an honest server never
// answers it below since, so only a server serving reads as of a rolled-back
// root would. The older-prefix rule is for since-less callers and for a
// since= root the anchor moved past while the request was in flight.
func (a *Anchor) Admit(ctx context.Context, auth Authority, root, since Root, audit []Hash) error {
	if root.Size < since.Size {
		return fmt.Errorf("%w: root %v answers a request for history since %v — the log shrank", ErrVerify, root, since)
	}
	from, to := since, root // the roots audit connects
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if err := a.load(); err != nil {
			return err
		}
		if !a.ok {
			return a.advance(root)
		}
		older, newer := a.root, root
		if root.Size < older.Size {
			older, newer = root, older
		}
		if older == newer {
			return nil
		}
		// A same-size pair fails below whatever the audit; any other pair
		// needs a proof of exactly it. The fetch runs without the lock, so
		// the anchor may move meanwhile: look again with the proof in hand.
		if (from != older || to != newer) && newer.Size > older.Size {
			a.mu.Unlock()
			var err error
			audit, err = auth.Consistency(ctx, older.Size, newer.Size)
			a.mu.Lock()
			if err != nil {
				return fmt.Errorf("provauth: fetching consistency %d -> %d for the anchor: %w", older.Size, newer.Size, err)
			}
			from, to = older, newer
			continue
		}
		if err := VerifyConsistency(older, newer, audit); err != nil {
			return fmt.Errorf("provauth: root %v is not consistent with the anchored root %v: %w", root, a.root, err)
		}
		if newer == a.root {
			return nil
		}
		return a.advance(newer)
	}
}

// load reads the pin file once; a missing file leaves the anchor empty.
func (a *Anchor) load() error {
	if a.loaded {
		return nil
	}
	root, ok, err := LoadPin(a.file)
	if err != nil {
		return err
	}
	a.root, a.ok, a.loaded = root, ok, true
	return nil
}

// advance persists root, then adopts it.
func (a *Anchor) advance(root Root) error {
	if a.file != "" {
		if err := SavePin(a.file, root); err != nil {
			return err
		}
	}
	a.root, a.ok = root, true
	return nil
}

// The pinned-root file: one line, the Root.String() form
// ("size:tid:hexhash"), read and written by an Anchor.

// LoadPin reads a pinned root. A missing file is (Root{}, false, nil) —
// the trust-on-first-use case, not an error.
func LoadPin(file string) (Root, bool, error) {
	data, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		return Root{}, false, nil
	}
	if err != nil {
		return Root{}, false, fmt.Errorf("provauth: reading pin %s: %w", file, err)
	}
	r, err := ParseRoot(string(data))
	if err != nil {
		return Root{}, false, fmt.Errorf("provauth: pin %s: %w", file, err)
	}
	return r, true, nil
}

// SavePin persists a pinned root atomically (temp file + rename), so a
// crash mid-write can never leave a corrupt pin that bricks verification.
func SavePin(file string, r Root) error {
	tmp, err := os.CreateTemp(filepath.Dir(file), filepath.Base(file)+".tmp*")
	if err != nil {
		return fmt.Errorf("provauth: writing pin %s: %w", file, err)
	}
	_, err = tmp.WriteString(r.String() + "\n")
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), file)
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("provauth: writing pin %s: %w", file, err)
	}
	return nil
}
