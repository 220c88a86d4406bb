package tree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestXMLRoundTrip(t *testing.T) {
	n := Build(M{
		"Release{20}": M{
			"Q01780": M{"Citation{3}": M{"Title": "some title"}},
		},
		"empty": nil,
		"leaf":  "v",
	})
	data, err := MarshalXML("SwissProt", n)
	if err != nil {
		t.Fatal(err)
	}
	label, m, err := UnmarshalXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if label != "SwissProt" || !m.Equal(n) {
		t.Errorf("XML round trip failed: label=%q equal=%v", label, m.Equal(n))
	}
}

func TestXMLDistinguishesEmptyLeaf(t *testing.T) {
	n := Build(M{"e": nil, "l": ""})
	data, err := MarshalXML("r", n)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := UnmarshalXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Child("e").Equal(NewTree()) || !m.Child("l").Equal(NewLeaf("")) {
		t.Error("empty tree vs empty leaf lost in XML")
	}
}

func TestXMLErrors(t *testing.T) {
	if _, _, err := UnmarshalXML([]byte("<not-xml")); err == nil {
		t.Error("bad XML should error")
	}
	// Leaf with children is invalid.
	bad := `<node label="r" leaf="true" value="v"><node label="c"></node></node>`
	if _, _, err := UnmarshalXML([]byte(bad)); err == nil {
		t.Error("leaf with children should error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	n := Build(M{"a1": M{"x": 1, "y": 2}, "a2": M{"x": 3}, "e": nil})
	enc := n.appendBinary(nil)
	if len(enc) != n.EncodedSize() {
		t.Errorf("EncodedSize = %d, actual %d", n.EncodedSize(), len(enc))
	}
	m, rest, err := decodeBinary(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decodeBinary: %d bytes left, err=%v", len(rest), err)
	}
	if !m.Equal(n) {
		t.Error("binary round trip failed")
	}
}

func TestBinaryCanonical(t *testing.T) {
	// Two equal trees built in different insertion orders must encode
	// identically (children are serialized in sorted label order).
	a := NewTree()
	a.AddChild("x", NewLeaf("1"))
	a.AddChild("y", NewLeaf("2"))
	b := NewTree()
	b.AddChild("y", NewLeaf("2"))
	b.AddChild("x", NewLeaf("1"))
	if !bytes.Equal(a.appendBinary(nil), b.appendBinary(nil)) {
		t.Error("binary encoding not canonical")
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, _, err := decodeBinary(nil); err == nil {
		t.Error("empty buffer should error")
	}
	if _, _, err := decodeBinary([]byte{0x99}); err == nil {
		t.Error("bad kind should error")
	}
	if _, _, err := decodeBinary([]byte{kindLeaf, 0x05, 'a'}); err == nil {
		t.Error("truncated leaf should error")
	}
	if _, _, err := decodeBinary([]byte{kindInterior, 0x01, 0x01, 'a'}); err == nil {
		t.Error("truncated interior should error")
	}
}

func TestReadWriteBinary(t *testing.T) {
	n := Build(M{"a": M{"b": "c"}})
	var buf bytes.Buffer
	if err := n.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadBinary(&buf)
	if err != nil || !m.Equal(n) {
		t.Fatalf("ReadBinary: %v, equal=%v", err, m.Equal(n))
	}
	// Trailing bytes must be rejected.
	var buf2 bytes.Buffer
	n.WriteBinary(&buf2)
	buf2.WriteByte('x')
	if _, err := ReadBinary(&buf2); err == nil {
		t.Error("trailing bytes should error")
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomTree(r, 5)
		enc := n.appendBinary(nil)
		if len(enc) != n.EncodedSize() {
			return false
		}
		m, rest, err := decodeBinary(enc)
		return err == nil && len(rest) == 0 && m.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickXMLRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomTree(r, 4)
		data, err := MarshalXML("root", n)
		if err != nil {
			return false
		}
		label, m, err := UnmarshalXML(data)
		return err == nil && label == "root" && m.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTryBuildErrors(t *testing.T) {
	if _, err := tryBuild(M{"a": 3.14}); err == nil {
		t.Error("unsupported literal type should error")
	}
	if _, err := tryBuild(M{"bad/label": 1}); err == nil {
		t.Error("invalid label should error")
	}
	// Nested error propagates.
	if _, err := tryBuild(M{"a": M{"b": []int{1}}}); err == nil {
		t.Error("nested unsupported type should error")
	}
}

func TestBuildFromNodeClones(t *testing.T) {
	inner := Build(M{"x": 1})
	outer := Build(M{"wrap": inner})
	inner.RemoveChild("x")
	if !outer.Child("wrap").HasChild("x") {
		t.Error("Build must clone *Node literals")
	}
}
