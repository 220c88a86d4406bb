package provhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// FuzzWireRecord: wireRecord.record() takes a line from outside the
// program. It must never panic, and whatever it accepts must be a valid
// record whose wire form is the line it came from — the codec is lossless,
// so a decoded record re-encodes to the same bytes.
func FuzzWireRecord(f *testing.F) {
	for _, seed := range []string{
		`{"tid":1,"op":"I","loc":"T/a"}`,
		`{"tid":2,"op":"C","loc":"T/c1","src":"S/a"}`,
		`{"tid":6,"op":"D","loc":"T/c1"}`,
		`{"tid":1,"op":"C","loc":"T/a"}`,
		`{"tid":1,"op":"I","loc":"T/a","src":"S"}`,
		`{"tid":1,"op":"","loc":"T"}`,
		`{"tid":1,"op":"IC","loc":"T"}`,
		`{"tid":1,"op":"X","loc":"T"}`,
		`{"tid":1,"op":"I","loc":""}`,
		`{"tid":1,"op":"I","loc":"T//a"}`,
		`{"tid":1,"op":"I","loc":"/T"}`,
		`{"tid":-9223372036854775808,"op":"I","loc":"T/é/ /<>"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var w wireRecord
		if json.Unmarshal(line, &w) != nil {
			return
		}
		rec, err := w.record()
		if err != nil {
			return
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("record() accepted %+v, which fails Validate: %v", w, err)
		}
		if back := toWire(rec); back != w {
			t.Fatalf("accepted %+v re-encodes as %+v", w, back)
		}
	})
}

// fuzzRows derives a small relation and a row of every derived kind from
// fuzz input, so the round-trip half of FuzzRowStream covers record (with
// and without proof), tid, value, event, end and analyze lines.
func fuzzRows(data []byte) (recs []provstore.Record, derived []provplan.Row) {
	labels := []string{"S", "T", "a", "b", "c1", "x y", "é<"}
	pathOf := func(b byte) path.Path {
		p := path.Root
		for i := 0; i <= int(b>>6)%3; i++ {
			p = p.Child(labels[int(b>>(2*i))%len(labels)])
		}
		return p
	}
	seen := map[string]bool{}
	for ; len(data) >= 4 && len(recs) < 8; data = data[4:] {
		rec := provstore.Record{Tid: 1 + int64(data[0]%4), Op: provstore.OpKind("ICD"[data[1]%3]), Loc: pathOf(data[2])}
		if rec.Op == provstore.OpCopy {
			rec.Src = pathOf(data[3])
		}
		if key := fmt.Sprint(rec.Tid, rec.Loc); !seen[key] {
			seen[key] = true
			recs = append(recs, rec)
		}
		derived = append(derived,
			provplan.Row{Kind: provplan.RowTid, Tid: rec.Tid},
			provplan.Row{Kind: provplan.RowValue, Val: int64(data[3]) - 100, Found: data[3]%2 == 0},
			provplan.Row{Kind: provplan.RowEvent, Event: provplan.Event(rec)},
			provplan.Row{Kind: provplan.RowEnd, Origin: provplan.OriginInserted},
			provplan.Row{Kind: provplan.RowEnd, Origin: provplan.OriginExternal, External: pathOf(data[3])},
			provplan.Row{Kind: provplan.RowAnalyze, Analysis: &provplan.Analysis{
				Ops:     []provplan.OpStat{{Op: "access:scan-all", In: int64(data[0]), Out: int64(data[1]), NS: int64(data[2])}},
				Scanned: int64(data[3]),
			}},
		)
	}
	slices.SortFunc(recs, provstore.CompareTidLoc)
	return recs, derived
}

// rowText renders a row for comparison (paths by their canonical text).
func rowText(row provplan.Row) string {
	if row.Analysis != nil {
		return fmt.Sprintf("az %+v", *row.Analysis)
	}
	return fmt.Sprintf("%d rec=%v tid=%d val=%d/%v ev=%v/%s/%s/%s origin=%v ext=%s",
		row.Kind, row.Rec, row.Tid, row.Val, row.Found,
		row.Event.Tid, row.Event.Op, row.Event.Loc, row.Event.Src, row.Origin, row.External)
}

// FuzzRowStream drives the one decoder of the row stream. Arbitrary bytes
// as a response body: the reader never panics, yields nothing after its
// first error, and reports a clean end only after a terminator whose count
// matches. Row sets derived from the same bytes: what streamWriter encodes,
// streamReader decodes back to the same rows, proofs included.
func FuzzRowStream(f *testing.F) {
	for _, seed := range []string{
		"{\"r\":{\"tid\":1,\"op\":\"I\",\"loc\":\"S/a\"}}\n{\"r\":{\"tid\":2,\"op\":\"C\",\"loc\":\"T/c1\",\"src\":\"S/a\"},\"p\":\"00\"}\n{\"eof\":true,\"n\":2,\"more\":true}\n",
		"{\"tid\":5}\n{\"v\":{\"val\":0,\"found\":false}}\n{\"ev\":{\"tid\":5,\"op\":\"C\",\"loc\":\"T/c3\",\"src\":\"T/c2\"}}\n{\"end\":{\"origin\":\"external\",\"external\":\"S/a\"}}\n{\"az\":{\"ops\":[{\"op\":\"filter\",\"in\":5,\"out\":5,\"ns\":9}],\"scanned\":5}}\n{\"eof\":true,\"n\":5}\n",
		"{\"eof\":true}\n",
		"{\"eof\":true,\"n\":1}\n",
		"{\"r\":{\"tid\":1,\"op\":\"I\",\"loc\":\"S/a\"}}\n",
		"{\"r\":{\"tid\":1,\"op\":\"I\",\"loc\":\"S/a\"}}\n{\"err\":\"disk on fire\"}\n{\"eof\":true,\"n\":1}\n",
		"{\"r\":{\"tid\":1,\"op\":\"I\",\"loc\":\"S/a\"}}\n{}\n{\"eof\":true,\"n\":2}\n",
		"{\"r\":{\"tid\":1,\"op\":\"Q\",\"loc\":\"S//a\"}}\n{\"eof\":true,\"n\":1}\n",
		"{\"r\":null,\"ev\":{\"op\":\"\"},\"end\":{\"origin\":\"nowhere\"}}\n",
		"{\"eof\":true,\"n\":0}{\"tid\":1}",
		"{\"r\":{\"tid\":1,\"op\":\"I\",\"loc\":",
		"[1,2,3]\nnull\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hostileBody(t, data)
		for _, proofs := range []bool{false, true} {
			roundTrip(t, data, proofs)
		}
	})
}

// hostileBody reads data as a response body and checks the reader's
// guarantees against a second, independent reading of the same bytes.
func hostileBody(t *testing.T, data []byte) {
	sr := &streamReader{ctx: context.Background(), label: "fuzz", body: io.NopCloser(nil), dec: json.NewDecoder(bytes.NewReader(data))}
	defer sr.close()
	n := 0
	for sr.next() {
		n++
		// The callers' conversions see the same outside input.
		sr.record()   //nolint:errcheck // must not panic
		sr.proof()    //nolint:errcheck // must not panic
		sr.line.row() //nolint:errcheck // must not panic
	}
	for range 3 {
		if sr.next() {
			t.Fatalf("next() yielded a line after the stream ended (err %v)", sr.err)
		}
	}
	if sr.err != nil {
		return
	}
	// A clean end: the n+1st JSON value of the body must be a terminator
	// saying n.
	dec := json.NewDecoder(bytes.NewReader(data))
	var term struct {
		EOF bool `json:"eof"`
		N   int  `json:"n"`
	}
	for i := 0; i <= n; i++ {
		term.EOF, term.N = false, 0
		if err := dec.Decode(&term); err != nil {
			t.Fatalf("clean end after %d lines, but the body's value %d does not decode: %v", n, i, err)
		}
	}
	if !term.EOF || term.N != n {
		t.Fatalf("clean end after %d lines without a matching terminator (eof=%v n=%d)", n, term.EOF, term.N)
	}
}

// roundTrip writes rows derived from data through a streamWriter and reads
// them back through a streamReader.
func roundTrip(t *testing.T, data []byte, proofs bool) {
	recs, rows := fuzzRows(data)
	auth, err := provauth.New(provstore.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := auth.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if err := auth.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		rows = append(rows, provplan.Row{Kind: provplan.RowRecord, Rec: rec})
	}

	srv := NewServer(auth)
	var stamp *provauth.Root
	if proofs {
		root, err := auth.Root(ctx)
		if err != nil {
			t.Fatal(err)
		}
		stamp = &root
	}
	w := httptest.NewRecorder()
	sw := srv.newStream(w, httptest.NewRequest("POST", "/v1/query", nil), stamp, 0, nil)
	for _, row := range rows {
		if !sw.row(row) {
			t.Fatalf("writer stopped at %s", rowText(row))
		}
	}
	if !sw.end() {
		t.Fatal("writer did not complete the stream")
	}
	if got := strings.Count(w.Body.String(), "\n"); got != len(rows)+1 {
		t.Fatalf("%d rows encoded as %d lines:\n%s", len(rows), got, w.Body)
	}

	sr := &streamReader{ctx: ctx, label: "fuzz", body: io.NopCloser(nil), dec: json.NewDecoder(w.Body)}
	defer sr.close()
	for i := 0; sr.next(); i++ {
		if i >= len(rows) {
			t.Fatalf("reader yielded more than the %d rows written", len(rows))
		}
		got, err := sr.line.row()
		if err != nil {
			t.Fatalf("row %d (%s) does not decode: %v", i, rowText(rows[i]), err)
		}
		if rowText(got) != rowText(rows[i]) || !reflect.DeepEqual(got.Analysis, rows[i].Analysis) {
			t.Fatalf("row %d round-trips as\n%s\nwant\n%s", i, rowText(got), rowText(rows[i]))
		}
		if proofs && got.Kind == provplan.RowRecord {
			proof, err := sr.proof()
			if err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
			if err := provauth.VerifyRecord(*stamp, got.Rec, proof); err != nil {
				t.Fatalf("row %d: proof does not round-trip: %v", i, err)
			}
		} else if sr.line.P != "" {
			t.Fatalf("row %d carries a proof nobody stamped", i)
		}
	}
	if sr.err != nil || sr.n != len(rows) {
		t.Fatalf("reader ended after %d of %d rows: %v", sr.n, len(rows), sr.err)
	}
}
