// Package provplan is the declarative query layer over the provenance
// store: a small algebra — pattern match on {Tid, Loc, Op, Src} with
// path-prefix and tid-range predicates, filter, semi-join on tid/path
// variables, aggregation (count, min/max tid), order and limit — compiled
// to a plan of composable iter.Seq2[Record, error] operators over the
// Backend cursor contract (provstore/scan.go).
//
// The paper's procedural queries (Src, Hist, Mod, Trace) are expressible in
// the algebra plus bounded iteration, per Codd's Theorem and the UnQL line
// of work: each chain step or BFS wave of the ancestry queries is one
// declarative select, so the whole query ships to wherever the plan
// executes. A Query is plain JSON — the wire format of cpdbd's POST
// /v1/query — and a backend that can execute plans itself (the cpdb://
// client) is handed the whole Query via the Executor interface, turning a
// remote ancestry query into exactly one round trip instead of a BFS of
// them.
//
// Compilation (see plan.go) picks the most selective index access path the
// predicate admits and pushes work below the client:
//
//   - loc <= P (ancestor-or-self)  → WithAncestors(P)
//   - loc = P (exact)              → ByLoc(P)
//   - loc >= P, or a pattern with
//     a concrete leading prefix    → ByPrefix(P)
//   - tid = N                      → ByTid(N)
//   - tid >= N                     → All().After(N, Root) keyset seek
//   - otherwise                    → All()
//
// plus two stream cuts: a (Tid, Loc)-ordered stream stops as soon as
// rec.Tid exceeds the predicate's upper tid bound, and a streaming-order
// limit stops after N rows — both release the underlying cursor promptly
// (a break under the cursor contract), so nothing past the cut is pulled
// off the wire. On a sharded backend the residual filter (and a whole
// aggregate) is pushed below the k-way merge and runs once per shard,
// concurrently.
package provplan

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/path"
)

// Query kinds: the value of Query.Op.
const (
	// OpSelect is the declarative record query (predicates, join,
	// aggregate, order, limit).
	OpSelect = "select"
	// OpTrace, OpHist, OpMod and OpSrc are the paper's provenance queries
	// compiled to plans: bounded iteration where every step is one select.
	OpTrace = "trace"
	OpHist  = "hist"
	OpMod   = "mod"
	OpSrc   = "src"
)

// Aggregates: the value of Query.Agg.
const (
	aggCount  = "count"
	aggMinTid = "min-tid"
	aggMaxTid = "max-tid"
)

// Orders: the value of Query.Order.
const (
	// OrderTidLoc is (Tid, Loc) — the paper's Figure 5 display order and
	// the default.
	OrderTidLoc = "tid-loc"
	// OrderLocTid is (Loc, Tid) — subtree-clustered order.
	OrderLocTid = "loc-tid"
)

// Join variables: the value of Join.On.
const (
	// joinTid keeps outer records whose Tid appears in the subquery
	// result — a semi-join on the transaction variable.
	joinTid = "tid"
	// joinSrcLoc keeps outer records whose Src equals the Loc of some
	// subquery record (which copies pulled from data the subquery saw).
	joinSrcLoc = "src-loc"
	// joinLocSrc keeps outer records whose Loc equals the Src of some
	// subquery record (which records were later used as a copy source).
	joinLocSrc = "loc-src"
)

// A Query is the declarative, JSON-serializable form of one provenance
// query — the body of POST /v1/query and the input of Compile. The zero
// Pred matches every record.
type Query struct {
	// Op selects the query kind: OpSelect, or one of the ancestry kinds
	// (OpTrace, OpHist, OpMod, OpSrc).
	Op string `json:"op"`

	// --- OpSelect ---

	// Where filters records; unset fields do not constrain.
	Where Pred `json:"where"`
	// Join, when set, semi-joins the filtered records against a
	// subquery result on a tid or path variable.
	Join *Join `json:"join,omitempty"`
	// Agg collapses the result to one value: aggCount, aggMinTid or
	// aggMaxTid. Aggregates cannot be combined with Order/Desc/Limit.
	Agg string `json:"agg,omitempty"`
	// Order is the result order: OrderTidLoc (default) or OrderLocTid.
	Order string `json:"order,omitempty"`
	// Desc reverses the order (forces materialization).
	Desc bool `json:"desc,omitempty"`
	// Limit, when positive, caps the number of result records.
	Limit int `json:"limit,omitempty"`

	// --- ancestry kinds ---

	// Path is the queried location (textual path form).
	Path string `json:"path,omitempty"`
	// AsOf pins the transaction horizon tnow; 0 means the store's MaxTid
	// at execution time, resolved wherever the plan runs (server-side on
	// a remote store — no extra client round trip).
	AsOf int64 `json:"asof,omitempty"`

	// Analyze enables EXPLAIN ANALYZE: execution is tapped per operator
	// and the Rows stream appends one RowAnalyze trailer. Analyze is an
	// execution mode, not part of the query language — it rides the JSON
	// wire form but does not appear in the canonical text form
	// (String/Parse round-trip the query without it).
	Analyze bool `json:"analyze,omitempty"`
}

// A Join is a semi-join of the outer select against a subquery: outer
// records are kept when their join variable's value appears in the
// subquery's result.
type Join struct {
	// On names the join variable pair: joinTid (default), joinSrcLoc or
	// joinLocSrc.
	On string `json:"on,omitempty"`
	// Sub is the inner query; it must be an OpSelect without aggregate.
	Sub *Query `json:"sub"`
}

// A Pred is a conjunction of predicates over {Tid, Loc, Op, Src}. Zero /
// empty fields do not constrain. Paths and patterns travel in textual form
// so a Pred round-trips through JSON; Compile validates them.
type Pred struct {
	// TidMin/TidMax bound the transaction id (inclusive); 0 = unbounded.
	TidMin int64 `json:"tid_min,omitempty"`
	TidMax int64 `json:"tid_max,omitempty"`
	// Ops restricts the operation kind to the listed letters (a subset
	// of "ICD").
	Ops string `json:"ops,omitempty"`
	// Loc matches the location against a path.Pattern: same length,
	// every non-wildcard component equal ("T/*/y").
	Loc string `json:"loc,omitempty"`
	// LocUnder keeps locations in the subtree at the path (descendant-
	// or-self): loc >= P in the paper's prefix order.
	LocUnder string `json:"loc_under,omitempty"`
	// LocAbove keeps locations on the root path of the path (ancestor-
	// or-self): loc <= P. This is the shape of hierarchical provenance
	// resolution.
	LocAbove string `json:"loc_above,omitempty"`
	// Src matches a copy's source against a path.Pattern. Records
	// without a source (inserts, deletes) never match.
	Src string `json:"src,omitempty"`
	// SrcUnder keeps copies whose source lies in the subtree at the path.
	SrcUnder string `json:"src_under,omitempty"`
}

// errBadQuery reports a Query that fails validation at compile time.
var errBadQuery = errors.New("provplan: bad query")

func badQuery(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadQuery, fmt.Sprintf(format, args...))
}

// String renders the query in the canonical text form accepted by Parse.
func (q *Query) String() string {
	var b strings.Builder
	q.writeTo(&b)
	return b.String()
}

func (q *Query) writeTo(b *strings.Builder) {
	if q.Op != OpSelect {
		b.WriteString(q.Op)
		b.WriteByte(' ')
		b.WriteString(q.Path)
		if q.AsOf > 0 {
			fmt.Fprintf(b, " asof %d", q.AsOf)
		}
		return
	}
	b.WriteString(OpSelect)
	if q.Agg != "" {
		b.WriteByte(' ')
		b.WriteString(q.Agg)
	}
	if clauses := q.Where.clauses(); len(clauses) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(clauses, " and "))
	}
	if q.Join != nil {
		on := q.Join.On
		if on == "" {
			on = joinTid
		}
		b.WriteString(" join ")
		b.WriteString(on)
		b.WriteString(" (")
		if q.Join.Sub != nil {
			q.Join.Sub.writeTo(b)
		}
		b.WriteByte(')')
	}
	if q.Order != "" && q.Order != OrderTidLoc {
		b.WriteString(" order ")
		b.WriteString(q.Order)
	}
	if q.Desc {
		b.WriteString(" desc")
	}
	if q.Limit > 0 {
		fmt.Fprintf(b, " limit %d", q.Limit)
	}
}

// clauses renders the predicate's set clauses in canonical order.
func (p Pred) clauses() []string {
	var out []string
	switch {
	case p.TidMin > 0 && p.TidMin == p.TidMax:
		out = append(out, fmt.Sprintf("tid=%d", p.TidMin))
	default:
		if p.TidMin > 0 {
			out = append(out, fmt.Sprintf("tid>=%d", p.TidMin))
		}
		if p.TidMax > 0 {
			out = append(out, fmt.Sprintf("tid<=%d", p.TidMax))
		}
	}
	if p.Ops != "" {
		out = append(out, "op="+strings.Join(strings.Split(canonicalOps(p.Ops), ""), ","))
	}
	if p.Loc != "" {
		out = append(out, "loc="+p.Loc)
	}
	if p.LocAbove != "" {
		out = append(out, "loc<="+p.LocAbove)
	}
	if p.LocUnder != "" {
		out = append(out, "loc>="+p.LocUnder)
	}
	if p.Src != "" {
		out = append(out, "src="+p.Src)
	}
	if p.SrcUnder != "" {
		out = append(out, "src>="+p.SrcUnder)
	}
	return out
}

// canonicalOps orders and dedups an op-letter set as a subset of "ICD".
// Unknown letters are preserved (validation rejects them at compile).
func canonicalOps(ops string) string {
	var b strings.Builder
	for _, k := range "ICD" {
		if strings.ContainsRune(ops, k) {
			b.WriteRune(k)
		}
	}
	for _, k := range ops {
		if !strings.ContainsRune("ICD", k) && !strings.ContainsRune(b.String(), k) {
			b.WriteRune(k)
		}
	}
	return b.String()
}

// parsePathArg parses a required textual path argument.
func parsePathArg(field, s string) (path.Path, error) {
	p, err := path.Parse(s)
	if err != nil {
		return path.Root, badQuery("%s: %v", field, err)
	}
	if p.IsRoot() {
		return path.Root, badQuery("%s: path must not be empty", field)
	}
	return p, nil
}
