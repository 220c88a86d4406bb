package tree

import "fmt"

// M is a literal tree description: each key is an edge label, each value is
// either a string/int (leaf), another M (interior node), or nil (empty
// tree). It exists so tests and examples can write trees in a form close to
// the paper's notation:
//
//	tree.Build(tree.M{"a1": tree.M{"x": 1, "y": 2}})
type M map[string]any

// Build constructs a tree from a literal description. It panics on invalid
// input (duplicate labels are impossible in a map; invalid labels and
// unsupported value types panic), making it suitable for fixtures only.
func Build(m M) *Node {
	n, err := tryBuild(m)
	if err != nil {
		panic(err)
	}
	return n
}

// tryBuild is Build with an error return instead of panicking.
func tryBuild(m M) (*Node, error) {
	n := NewTree()
	for label, v := range m {
		child, err := buildValue(v)
		if err != nil {
			return nil, fmt.Errorf("tree: building %q: %w", label, err)
		}
		if err := n.AddChild(label, child); err != nil {
			return nil, err
		}
	}
	return n, nil
}

func buildValue(v any) (*Node, error) {
	switch v := v.(type) {
	case nil:
		return NewTree(), nil
	case string:
		return NewLeaf(v), nil
	case int:
		return NewLeaf(fmt.Sprint(v)), nil
	case M:
		return tryBuild(v)
	case *Node:
		return v.Clone(), nil
	default:
		return nil, fmt.Errorf("unsupported literal value type %T", v)
	}
}
