package provhttp

import (
	"bytes"
	"context"
	"encoding/binary"
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
// so a decoded record re-encodes to the same bytes — and whose binary form
// (the body of a record frame) decodes back to it, plainly and through the
// intern table. The same bytes, read as a path's binary encoding: the frame
// decoder's path decoder agrees with path.DecodeBinaryString, and what they accept
// is canonical and survives the text form.
func FuzzWireRecord(f *testing.F) {
	f.Add([]byte("T\x00c1\x00y\x00"))
	f.Add([]byte("T\x00\x00"))
	f.Add([]byte("T/a\x00"))
	f.Add([]byte("a\x01\x02b\x00"))
	f.Add([]byte("\x00"))
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
		binaryPath(t, line)
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
		bin := rec.AppendBinary(nil)
		for name, decode := range map[string]func([]byte) (path.Path, error){
			"plain":    func(b []byte) (path.Path, error) { return path.DecodeBinaryString(string(b)) },
			"interned": decodeWirePath,
		} {
			back, n, err := provstore.DecodeRecordWith(bin, decode)
			if err != nil || n != len(bin) || toWire(back) != w {
				t.Fatalf("%s: %+v in binary decodes as %+v (%d of %d bytes, err %v)", name, w, toWire(back), n, len(bin), err)
			}
		}
	})
}

// binaryPath checks the two decoders of a path's binary encoding against
// each other on arbitrary bytes.
func binaryPath(t *testing.T, enc []byte) {
	want, werr := path.DecodeBinaryString(string(enc))
	got, gerr := decodeWirePath(enc)
	if (werr == nil) != (gerr == nil) || !got.Equal(want) {
		t.Fatalf("binary path %q: decodeWirePath says %q, %v; path.DecodeBinaryString says %q, %v", enc, got, gerr, want, werr)
	}
	if werr != nil {
		return
	}
	if back := want.AppendBinary(nil); !bytes.Equal(back, enc) {
		t.Fatalf("binary path %q decodes to %q, which encodes as %q", enc, want, back)
	}
	if text, err := path.Parse(want.String()); err != nil || !text.Equal(want) {
		t.Fatalf("binary path %q decodes to %q, which does not survive its text form: %q, %v", enc, want, text, err)
	}
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
			provplan.Row{Kind: provplan.RowEnd, Origin: provplan.OriginPreexisting},
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

// FuzzRowStream drives the one encoder of the row stream with row sets
// derived from arbitrary bytes: what streamWriter frames, streamReader
// decodes back to the same rows, proofs included, and the NDJSON rendered
// from the frames decodes to the same lines.
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
		for _, proofs := range []bool{false, true} {
			roundTrip(t, data, proofs)
		}
	})
}

// frame is one frame of a framed stream.
func frame(kind byte, body string) []byte {
	return appendFrame(nil, append([]byte{kind}, body...))
}

// frames concatenates frames into a body.
func frames(fs ...[]byte) []byte { return bytes.Join(fs, nil) }

var (
	recB      = provstore.Record{Tid: 2, Op: provstore.OpCopy, Loc: path.New("T", "c1"), Src: path.New("S", "a")}
	frameRecA = frame(frameRecord, string(provstore.Record{Tid: 1, Op: provstore.OpInsert, Loc: path.New("S", "a")}.AppendBinary(nil)))
	frameRecB = frame(frameRecord, string(recB.AppendBinary(nil)))
)

// The body of a well-formed frame of each binary kind but the record's,
// as written for a row (or the terminator).
var (
	bodyTid   = string(appendRowBody(nil, provplan.Row{Kind: provplan.RowTid, Tid: 300})[1:])
	bodyValue = string(appendRowBody(nil, provplan.Row{Kind: provplan.RowValue, Val: -300, Found: true})[1:])
	bodyEvent = string(appendRowBody(nil, provplan.Row{Kind: provplan.RowEvent, Event: provplan.Event(recB)})[1:])
	bodyEnd   = string(appendRowBody(nil, provplan.Row{Kind: provplan.RowEnd, Origin: provplan.OriginExternal, External: path.New("S", "a")})[1:])
	bodyEOF   = string(appendEOFBody(nil, 300, true)[1:])
)

// binaryBodies lists each binary kind with a well-formed body.
var binaryBodies = []struct {
	kind byte
	body string
}{
	{frameRecord, string(recB.AppendBinary(nil))},
	{frameTid, bodyTid},
	{frameValue, bodyValue},
	{frameEvent, bodyEvent},
	{frameEnd, bodyEnd},
	{frameEOF, bodyEOF},
}

// FuzzFrameStream is FuzzRowStream for the framed form of the stream.
// Arbitrary bytes as a framed body: the reader never panics, yields nothing
// after its first error, never holds a frame buffer above maxFrameBytes,
// and reports a clean end only when the body is exactly n data frames and a
// terminator frame saying n. Row sets derived from the same bytes: what
// streamWriter frames, streamReader decodes back to the same rows, proofs
// included.
func FuzzFrameStream(f *testing.F) {
	for _, seed := range [][]byte{
		frames(frameRecA, frameRecB, frame(frameLine, `{"eof":true,"n":2,"more":true}`+"\n")),
		frames(frame(frameLine, `{"tid":5}`), frame(frameLine, `{"v":{"val":0,"found":false}}`), frame(frameLine, `{"eof":true,"n":2}`)),
		frame(frameLine, `{"eof":true}`),
		frames(frameRecA, frame(frameLine, `{"err":"disk on fire"}`)),
		frames(frameRecA, frame(frameLine, `{"eof":true,"n":1}`), frameRecB),
		frames(frameRecA, frame(frameLine, `{"eof":true,"n":2}`)),
		frameRecA,
		frameRecA[:len(frameRecA)-2],
		frames(frame(frameLine, `{"r":{"tid":1,"op":"I","loc":"S/a"},"p":"00"}`), frame(frameLine, `{"eof":true,"n":1}`)),
		frames(frame('?', "x"), frame(frameLine, `{"eof":true,"n":1}`)),
		{0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'r'},
		binary.AppendUvarint(nil, maxFrameBytes+1),
		binary.AppendUvarint(nil, maxFrameBytes),
		nil,
		frames(frame(frameTid, "\x05"), frame(frameValue, "\x05\x01"), frame(frameEOF, "\x02\x00")),
		frames(frame(frameEvent, bodyEvent), frame(frameEnd, bodyEnd), frame(frameEOF, "\x02\x01")),
		frames(frame(frameEnd, "i"), frame(frameEnd, "p"), frame(frameEOF, "\x02\x00")),
		frames(frameRecA, frame(frameEOF, "\x01\x00"), frameRecB),
		frames(frame(frameTid, "\x05"), frame(frameLine, `{"eof":true,"n":1}`)),
		frames(frame(frameLine, `{"tid":5}`), frame(frameEOF, "\x01\x00")),
		frames(frame(frameEnd, "x"), frame(frameEOF, "\x01\x00")),
	} {
		f.Add(seed)
	}
	// Each binary kind cut by a byte, and grown by one.
	for _, k := range binaryBodies {
		f.Add(frames(frame(k.kind, k.body[:len(k.body)-1]), frame(frameEOF, "\x01\x00")))
		f.Add(frames(frame(k.kind, k.body+"\x00"), frame(frameEOF, "\x01\x00")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hostileFrames(t, data)
		for _, proofs := range []bool{false, true} {
			roundTrip(t, data, proofs)
		}
	})
}

// hostileFrames reads data as a framed response body and checks the
// reader's guarantees against a second, independent reading of the bytes.
func hostileFrames(t *testing.T, data []byte) {
	sr := &streamReader{ctx: context.Background(), label: "fuzz"}
	sr.read(io.NopCloser(bytes.NewReader(data)), contentTypeFrames)
	defer sr.close()
	n := 0
	for sr.next() {
		n++
		sr.record() //nolint:errcheck // must not panic
		sr.proof()  //nolint:errcheck // must not panic
		sr.row()    //nolint:errcheck // must not panic
	}
	for range 3 {
		if sr.next() {
			t.Fatalf("next() yielded a line after the stream ended (err %v)", sr.err)
		}
	}
	if cap(sr.frame) > maxFrameBytes {
		t.Fatalf("the reader grew its frame buffer to %d bytes, above the %d-byte limit", cap(sr.frame), maxFrameBytes)
	}
	if sr.err != nil {
		return
	}
	// A clean end: the body is n frames, then a terminator frame — binary,
	// or a line frame — that says n, then nothing.
	rest := data
	var last []byte
	for i := 0; i <= n; i++ {
		size, w := binary.Uvarint(rest)
		if w <= 0 || size == 0 || size > uint64(len(rest)-w) {
			t.Fatalf("clean end after %d lines, but the body's frame %d is not whole", n, i)
		}
		last, rest = rest[w:w+int(size)], rest[w+int(size):]
	}
	var term struct {
		EOF bool `json:"eof"`
		N   int  `json:"n"`
	}
	switch last[0] {
	case frameEOF:
		got, _, err := decodeEOFBody(last[1:])
		term.EOF, term.N = err == nil, got
	case frameLine:
		if json.Unmarshal(last[1:], &term) != nil {
			term.EOF = false
		}
	}
	if !term.EOF || term.N != n || len(rest) != 0 {
		t.Fatalf("clean end after %d lines without a matching terminator frame at the end of the body (last frame %q, %d bytes behind it)", n, last, len(rest))
	}
}

// TestFrameStreamRejects: the ways a framed body can be wrong, each an
// error that says so, after exactly the whole lines before it — never a
// short result, and never a buffer sized by a length the body only claims.
func TestFrameStreamRejects(t *testing.T) {
	eof := func(n int) []byte { return frame(frameLine, fmt.Sprintf(`{"eof":true,"n":%d}`, n)) }
	for _, c := range []struct {
		name  string
		body  []byte
		lines int
		err   string // "" = a clean end
	}{
		{"whole", frames(frameRecA, frameRecB, eof(2)), 2, ""},
		{"empty result", eof(0), 0, ""},
		{"no terminator", frames(frameRecA, frameRecB), 2, "stream truncated after 2 lines (missing eof terminator)"},
		{"empty body", nil, 0, "stream truncated after 0 lines"},
		{"cut inside a frame", frames(frameRecA, frameRecB[:len(frameRecB)-3]), 1, "stream truncated inside a frame"},
		{"cut inside a length", append(frames(frameRecA), 0x80), 1, "unexpected EOF"},
		{"terminator counts more", frames(frameRecA, eof(2)), 1, "stream carried 1 lines, terminator says 2"},
		{"terminator counts fewer", frames(frameRecA, frameRecB, eof(1)), 2, "stream carried 2 lines, terminator says 1"},
		{"bytes after the terminator", frames(frameRecA, eof(1), frameRecB), 1, "bytes after the eof terminator"},
		{"in-band error", frames(frameRecA, frame(frameLine, `{"err":"disk on fire"}`), eof(1)), 1, "server error mid-stream: disk on fire"},
		{"empty frame", frames(frameRecA, []byte{0x00}, eof(1)), 1, "frame of 0 bytes"},
		{"unknown kind", frames(frameRecA, frame('?', "x"), eof(2)), 1, "unknown frame kind 0x3f"},
		{"blank line frame", frames(frame(frameLine, `{}`), eof(1)), 0, "blank stream line"},
		{"line frame that is not JSON", frames(frame(frameLine, `{"tid":`), eof(1)), 0, "unexpected end of JSON input"},
		{"record frame with a bad op", frames(frame(frameRecord, "\x01Q\x02S\x00\x00"), eof(1)), 0, "invalid op"},
		{"record frame with an empty label", frames(frame(frameRecord, "\x01I\x03S\x00\x00\x00"), eof(1)), 0, "label must be non-empty"},
		{"record frame cut short", frames(frame(frameRecord, "\x01I\x09S\x00"), eof(1)), 0, "truncated path"},
		{"length above the limit", frames(frameRecA, binary.AppendUvarint(nil, maxFrameBytes+1)), 1, "frame of 1048577 bytes"},
		{"length of 2^63", frames(frameRecA, binary.AppendUvarint(nil, 1<<63)), 1, "frame of 9223372036854775808 bytes"},
		{"length that overflows", frames(frameRecA, bytes.Repeat([]byte{0xff}, 11)), 1, "overflows"},
		{"binary rows", frames(frame(frameTid, bodyTid), frame(frameValue, bodyValue), frame(frameEvent, bodyEvent), frame(frameEnd, bodyEnd), frame(frameEnd, "i"), frame(frameEOF, "\x05\x00")), 5, ""},
		{"binary terminator", frames(frameRecA, frameRecB, frame(frameEOF, "\x02\x01")), 2, ""},
		{"binary terminator counts more", frames(frameRecA, frame(frameEOF, "\x02\x00")), 1, "stream carried 1 lines, terminator says 2"},
		{"binary terminator cut short", frames(frameRecA, frame(frameEOF, "\x01")), 1, "bad terminator frame"},
		{"binary terminator too long", frames(frameRecA, frame(frameEOF, "\x01\x00\x00")), 1, "bad terminator frame"},
		{"binary terminator with a bad more byte", frames(frameRecA, frame(frameEOF, "\x01\x02")), 1, "bad terminator frame"},
		{"bytes after a binary terminator", frames(frameRecA, frame(frameEOF, "\x01\x00"), frameRecB), 1, "bytes after the eof terminator"},
		{"empty tid frame", frames(frame(frameTid, ""), eof(1)), 0, "bad tid frame"},
		{"tid frame cut short", frames(frame(frameTid, bodyTid[:1]), eof(1)), 0, "bad tid frame"},
		{"tid frame too long", frames(frame(frameTid, bodyTid+"\x00"), eof(1)), 0, "bad tid frame"},
		{"value frame cut short", frames(frame(frameValue, bodyValue[:len(bodyValue)-1]), eof(1)), 0, "bad value frame"},
		{"value frame too long", frames(frame(frameValue, bodyValue+"\x00"), eof(1)), 0, "bad value frame"},
		{"value frame with a bad found byte", frames(frame(frameValue, "\x05\x02"), eof(1)), 0, "bad value frame"},
		{"trace step frame cut short", frames(frame(frameEvent, bodyEvent[:len(bodyEvent)-1]), eof(1)), 0, "truncated path"},
		{"trace step frame too long", frames(frame(frameEvent, bodyEvent+"\x00"), eof(1)), 0, "bad trace step frame"},
		{"trace step frame with a bad op", frames(frame(frameEvent, "\x01Q\x02S\x00\x00"), eof(1)), 0, "invalid op"},
		{"empty trace end frame", frames(frame(frameEnd, ""), eof(1)), 0, "bad trace end frame"},
		{"trace end frame with an unknown origin", frames(frame(frameEnd, "x"), eof(1)), 0, "unknown trace origin byte 0x78"},
		{"trace end frame with a bad path", frames(frame(frameEnd, bodyEnd[:len(bodyEnd)-1]), eof(1)), 0, "bad external path"},
	} {
		sr := &streamReader{ctx: context.Background(), label: "test"}
		sr.read(io.NopCloser(bytes.NewReader(c.body)), contentTypeFrames)
		n := 0
		for sr.next() {
			n++
		}
		if n != c.lines || (sr.err == nil) != (c.err == "") || (sr.err != nil && !strings.Contains(sr.err.Error(), c.err)) {
			t.Errorf("%s: %d lines, then %v; want %d lines, then an error holding %q", c.name, n, sr.err, c.lines, c.err)
		}
		if strings.HasPrefix(c.name, "length") && cap(sr.frame) > len(frameRecA) {
			t.Errorf("%s: the reader sized its buffer (%d bytes) by a length the body only claims", c.name, cap(sr.frame))
		}
	}
}

// roundTrip writes rows derived from data through a streamWriter twice —
// for a request that asks for frames and for a bare one — and reads both
// bodies back: the frames through a streamReader decode to the rows
// written, proofs included, and the NDJSON rendered from them, one line per
// row and the terminator, to the same lines, proofs and terminator.
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
	if err := auth.Flush(context.Background()); err != nil {
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
	var bodies [2][]byte
	for f, form := range []string{contentTypeFrames, contentTypeNDJSON} {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/query", nil)
		if form == contentTypeFrames {
			req.Header.Set("Accept", form)
		}
		sw := srv.newStream(w, req, stamp, 0, false)
		for _, row := range rows {
			if !sw.row(row) {
				t.Fatalf("%s: writer stopped at %s", form, rowText(row))
			}
		}
		if !sw.end() {
			t.Fatalf("%s: writer did not complete the stream", form)
		}
		if got := w.Header().Get("Content-Type"); got != form {
			t.Fatalf("a request for %s was answered as %s", form, got)
		}
		bodies[f] = bytes.Clone(w.Body.Bytes())
	}
	if got := bytes.Count(bodies[1], []byte("\n")); got != len(rows)+1 {
		t.Fatalf("%d rows rendered as %d lines:\n%s", len(rows), got, bodies[1])
	}

	sr := &streamReader{ctx: ctx, label: "fuzz"}
	sr.read(io.NopCloser(bytes.NewReader(bodies[0])), contentTypeFrames)
	for i := 0; sr.next(); i++ {
		if i >= len(rows) {
			t.Fatalf("reader yielded more than the %d rows written", len(rows))
		}
		got, err := sr.row()
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
		} else if len(sr.proofRaw) != 0 {
			t.Fatalf("row %d carries a proof nobody stamped", i)
		}
	}
	sr.close()
	if sr.err != nil || sr.n != len(rows) {
		t.Fatalf("reader ended after %d of %d rows: %v", sr.n, len(rows), sr.err)
	}

	fLines, fEnd := ReadStream(io.NopCloser(bytes.NewReader(bodies[0])), contentTypeFrames)
	nLines, nEnd := ReadStream(io.NopCloser(bytes.NewReader(bodies[1])), contentTypeNDJSON)
	if !slices.Equal(nLines, fLines) || nEnd != fEnd {
		t.Fatalf("the rendered NDJSON decodes differently from the frames:\n got: %q, %s\nwant: %q, %s",
			nLines, nEnd, fLines, fEnd)
	}
}
