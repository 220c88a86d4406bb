package tree

import (
	"bufio"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
)

// This file implements two interchange encodings for trees:
//
//   - A generic XML form, used when presenting databases as "fully-keyed XML
//     views" (paper §3.1). Labels are carried in attributes rather than
//     element names so that arbitrary labels (e.g. "Release{20}") survive.
//   - A compact length-prefixed binary form used by the on-disk stores.

// xmlNode is the wire representation of one tree node.
type xmlNode struct {
	XMLName  xml.Name  `xml:"node"`
	Label    string    `xml:"label,attr"`
	Value    string    `xml:"value,attr,omitempty"`
	Leaf     bool      `xml:"leaf,attr,omitempty"`
	Children []xmlNode `xml:"node"`
}

func toXMLNode(label string, n *Node) xmlNode {
	x := xmlNode{Label: label, Leaf: n.leaf, Value: n.value}
	for _, l := range n.Labels() {
		x.Children = append(x.Children, toXMLNode(l, n.children[l]))
	}
	return x
}

func fromXMLNode(x xmlNode) (*Node, error) {
	if x.Leaf {
		if len(x.Children) > 0 {
			return nil, fmt.Errorf("tree: XML leaf %q has children", x.Label)
		}
		return NewLeaf(x.Value), nil
	}
	n := NewTree()
	for _, c := range x.Children {
		ch, err := fromXMLNode(c)
		if err != nil {
			return nil, err
		}
		if err := n.AddChild(c.Label, ch); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// MarshalXML encodes the subtree rooted at n (presented under the given root
// label) as a standalone XML document.
func MarshalXML(rootLabel string, n *Node) ([]byte, error) {
	return xml.MarshalIndent(toXMLNode(rootLabel, n), "", "  ")
}

// UnmarshalXML decodes a document produced by MarshalXML, returning the root
// label and tree.
func UnmarshalXML(data []byte) (string, *Node, error) {
	var x xmlNode
	if err := xml.Unmarshal(data, &x); err != nil {
		return "", nil, fmt.Errorf("tree: bad XML: %w", err)
	}
	n, err := fromXMLNode(x)
	if err != nil {
		return "", nil, err
	}
	return x.Label, n, nil
}

// Binary format (per node):
//
//	kind byte: 0 = interior, 1 = leaf
//	leaf:      uvarint len, value bytes
//	interior:  uvarint child count, then per child:
//	           uvarint len, label bytes, node
//
// Children are written in sorted label order so the encoding is canonical:
// equal trees encode to equal bytes.

const (
	kindInterior = 0
	kindLeaf     = 1
)

// appendBinary appends the canonical binary encoding of n to buf.
func (n *Node) appendBinary(buf []byte) []byte {
	if n.leaf {
		buf = append(buf, kindLeaf)
		buf = binary.AppendUvarint(buf, uint64(len(n.value)))
		return append(buf, n.value...)
	}
	buf = append(buf, kindInterior)
	labels := n.Labels()
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
		buf = n.children[l].appendBinary(buf)
	}
	return buf
}

// EncodedSize returns the length in bytes of the canonical binary encoding,
// without materializing it.
func (n *Node) EncodedSize() int {
	if n.leaf {
		return 1 + uvarintLen(uint64(len(n.value))) + len(n.value)
	}
	sz := 1 + uvarintLen(uint64(len(n.children)))
	for l, ch := range n.children {
		sz += uvarintLen(uint64(len(l))) + len(l) + ch.EncodedSize()
	}
	return sz
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// decodeBinary decodes one node from the front of buf, returning the node
// and the bytes after it.
func decodeBinary(buf []byte) (*Node, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case kindLeaf:
		v, rest, err := decodeString(buf)
		if err != nil {
			return nil, nil, err
		}
		return NewLeaf(v), rest, nil
	case kindInterior:
		cnt, m := binary.Uvarint(buf)
		if m <= 0 {
			return nil, nil, fmt.Errorf("tree: bad child count varint")
		}
		buf = buf[m:]
		node := NewTree()
		for i := uint64(0); i < cnt; i++ {
			label, rest, err := decodeString(buf)
			if err != nil {
				return nil, nil, err
			}
			child, rest2, err := decodeBinary(rest)
			if err != nil {
				return nil, nil, err
			}
			if err := node.AddChild(label, child); err != nil {
				return nil, nil, err
			}
			buf = rest2
		}
		return node, buf, nil
	default:
		return nil, nil, fmt.Errorf("tree: bad node kind 0x%02x", kind)
	}
}

func decodeString(buf []byte) (string, []byte, error) {
	l, m := binary.Uvarint(buf)
	if m <= 0 {
		return "", nil, fmt.Errorf("tree: bad string length varint")
	}
	buf = buf[m:]
	if uint64(len(buf)) < l {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(buf[:l]), buf[l:], nil
}

// WriteBinary writes the canonical binary encoding of n to w.
func (n *Node) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(n.appendBinary(nil)); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads one binary-encoded node from r (which must contain
// exactly one encoding).
func ReadBinary(r io.Reader) (*Node, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	n, rest, err := decodeBinary(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("tree: %d trailing bytes after node", len(rest))
	}
	return n, nil
}
