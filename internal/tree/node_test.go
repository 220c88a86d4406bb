package tree

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/path"
)

// figure4S1 builds source database S1 from Figure 4 of the paper.
func figure4S1() *Node {
	return Build(M{
		"a1": M{"x": 1, "y": 2},
		"a2": M{"x": 3},
		"a3": M{"x": 7, "y": 6},
	})
}

func TestBuildAndAccess(t *testing.T) {
	s1 := figure4S1()
	n, err := s1.Get(path.MustParse("a1/y"))
	if err != nil {
		t.Fatal(err)
	}
	if !n.IsLeaf() || n.Value() != "2" {
		t.Errorf("a1/y = %v, want leaf 2", n)
	}
	if s1.Size() != 9 { // root + 3 entries + 5 leaves
		t.Errorf("Size = %d, want 9", s1.Size())
	}
	if _, err := s1.Get(path.MustParse("a9")); !errors.Is(err, ErrNoSuchPath) {
		t.Errorf("missing path: got %v", err)
	}
}

func TestAddRemoveChild(t *testing.T) {
	n := NewTree()
	if err := n.AddChild("c1", NewTree()); err != nil {
		t.Fatal(err)
	}
	if err := n.AddChild("c1", NewTree()); !errors.Is(err, ErrDupEdge) {
		t.Errorf("duplicate add: got %v", err)
	}
	if err := n.RemoveChild("c1"); err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveChild("c1"); !errors.Is(err, ErrNoSuchEdge) {
		t.Errorf("remove missing: got %v", err)
	}
	leaf := NewLeaf("7")
	if err := leaf.AddChild("x", NewTree()); !errors.Is(err, errLeafChild) {
		t.Errorf("add to leaf: got %v", err)
	}
	if err := n.AddChild("bad/label", NewTree()); err == nil {
		t.Error("invalid label should error")
	}
}

func TestSetChildOverwrites(t *testing.T) {
	n := NewTree()
	if err := n.SetChild("a", NewLeaf("1")); err != nil {
		t.Fatal(err)
	}
	if err := n.SetChild("a", NewLeaf("2")); err != nil {
		t.Fatal(err)
	}
	if n.Child("a").Value() != "2" {
		t.Error("SetChild must overwrite")
	}
}

func TestSetValue(t *testing.T) {
	n := NewTree()
	if err := n.SetValue("42"); err != nil {
		t.Fatal(err)
	}
	if !n.IsLeaf() || n.Value() != "42" {
		t.Error("SetValue on empty tree should make a leaf")
	}
	m := Build(M{"a": 1})
	if err := m.SetValue("x"); !errors.Is(err, errValueOnInner) {
		t.Errorf("SetValue on interior: got %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s1 := figure4S1()
	c := s1.Clone()
	if !c.Equal(s1) {
		t.Fatal("clone not equal")
	}
	// Mutate the clone; the original must not change.
	if err := c.Child("a1").RemoveChild("y"); err != nil {
		t.Fatal(err)
	}
	if !s1.Child("a1").HasChild("y") {
		t.Error("mutating clone affected original")
	}
}

func TestEqualDistinguishesLeafKinds(t *testing.T) {
	if NewTree().Equal(NewLeaf("")) {
		t.Error("empty tree must differ from empty-string leaf")
	}
	if !NewLeaf("a").Equal(NewLeaf("a")) || NewLeaf("a").Equal(NewLeaf("b")) {
		t.Error("leaf equality wrong")
	}
	var nilNode *Node
	if nilNode.Equal(NewTree()) || !nilNode.Equal(nil) {
		t.Error("nil handling wrong")
	}
}

func TestWalkOrderAndPaths(t *testing.T) {
	s1 := figure4S1()
	var seen []string
	s1.Walk(func(rel path.Path, _ *Node) error {
		seen = append(seen, rel.String())
		return nil
	})
	want := []string{"", "a1", "a1/x", "a1/y", "a2", "a2/x", "a3", "a3/x", "a3/y"}
	if len(seen) != len(want) {
		t.Fatalf("walk visited %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("walk[%d] = %q, want %q", i, seen[i], want[i])
		}
	}
}

func TestWalkAbort(t *testing.T) {
	s1 := figure4S1()
	errStop := errors.New("stop")
	count := 0
	err := s1.Walk(func(path.Path, *Node) error {
		count++
		if count == 3 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || count != 3 {
		t.Errorf("walk abort: count=%d err=%v", count, err)
	}
}

func TestString(t *testing.T) {
	n := Build(M{"b": M{"x": 1}, "a": 2})
	if got := n.String(); got != "{a: 2, b: {x: 1}}" {
		t.Errorf("String = %q", got)
	}
	if NewTree().String() != "{}" {
		t.Error("empty tree should render as {}")
	}
}

// randomTree generates a bounded random tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(4) == 0 {
			return NewTree() // empty interior
		}
		return NewLeaf(string(rune('0' + r.Intn(10))))
	}
	n := NewTree()
	labels := []string{"a", "b", "c", "d", "e"}
	for i, cnt := 0, r.Intn(4); i < cnt; i++ {
		l := labels[r.Intn(len(labels))]
		if !n.HasChild(l) {
			n.AddChild(l, randomTree(r, depth-1))
		}
	}
	return n
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomTree(r, 4)
		return n.Clone().Equal(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSizeMatchesPaths(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomTree(r, 4)
		nodes := 0
		n.Walk(func(path.Path, *Node) error { nodes++; return nil })
		return n.Size() == nodes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForest(t *testing.T) {
	f := NewForest()
	if err := f.AddDB("S1", figure4S1()); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDB("S1", NewTree()); err == nil {
		t.Error("duplicate DB should error")
	}
	if err := f.AddDB("bad/name", NewTree()); err == nil {
		t.Error("invalid DB name should error")
	}
	n, err := f.Get(path.MustParse("S1/a1/y"))
	if err != nil || n.Value() != "2" {
		t.Fatalf("forest Get: %v, %v", n, err)
	}
	if _, err := f.Get(path.MustParse("S9/a")); err == nil {
		t.Error("unknown DB should error")
	}
	if _, err := f.Get(path.Root); err == nil {
		t.Error("forest root is not addressable")
	}
	if !f.Has(path.MustParse("S1/a2")) || f.Has(path.MustParse("S1/zz")) {
		t.Error("Has wrong")
	}
}

func TestForestCloneEqual(t *testing.T) {
	f := NewForest()
	f.AddDB("S1", figure4S1())
	f.AddDB("T", Build(M{"c1": M{"x": 1, "y": 3}}))
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.DB("T").RemoveChild("c1")
	if f.Equal(g) {
		t.Error("deep clone violated")
	}
	h := NewForest()
	h.AddDB("S1", figure4S1())
	if f.Equal(h) {
		t.Error("different db sets must not be equal")
	}
}

// TestNoSuchPathError: a miss is a typed error that still is ErrNoSuchPath
// and still reads as it always did, and asking whether a path exists builds
// no error at all.
func TestNoSuchPathError(t *testing.T) {
	s1 := figure4S1()
	f := NewForest()
	if err := f.AddDB("S1", s1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		get  func() (*Node, error)
		want string
	}{
		{func() (*Node, error) { return s1.Get(path.MustParse("a1/q/r")) },
			`tree: no such path: "a1/q/r" (missing at "a1/q")`},
		{func() (*Node, error) { return f.Get(path.MustParse("S1/a9")) },
			`tree: no such path: "a9" (missing at "a9")`},
		{func() (*Node, error) { return f.Get(path.MustParse("S1/a1/x/deep/er")) },
			`tree: no such path: "a1/x/deep/er" (missing at "a1/x/deep")`},
	} {
		_, err := tc.get()
		var nsp *noSuchPathError
		if !errors.Is(err, ErrNoSuchPath) || !errors.As(err, &nsp) || err.Error() != tc.want {
			t.Errorf("miss = %T %q, want a NoSuchPathError reading %q", err, err, tc.want)
		}
	}
	if n, err := f.Get(path.MustParse("S1/a3/y")); err != nil || n.Value() != "6" {
		t.Errorf("Forest.Get(S1/a3/y) = %v, %v", n, err)
	}

	hit, miss, other := path.MustParse("S1/a1/y"), path.MustParse("S1/a1/q/r"), path.MustParse("S9/a1")
	if !f.Has(hit) || f.Has(miss) || f.Has(other) || f.Has(path.Root) {
		t.Error("Forest.Has disagrees with Get")
	}
	rel := path.MustParse("a1/q/r")
	if allocs := testing.AllocsPerRun(100, func() {
		if f.Has(miss) || s1.Has(rel) || !f.Has(hit) {
			t.Fatal("Has changed its answer")
		}
	}); allocs != 0 {
		t.Errorf("Has allocates %v times per run, want 0", allocs)
	}
}
