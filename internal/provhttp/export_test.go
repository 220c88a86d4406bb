package provhttp

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/path"
	"repro/internal/provplan"
)

// The names the external tests (package provhttp_test) use for the frames
// of the row stream and their NDJSON rendering.
const (
	ContentTypeNDJSON = contentTypeNDJSON
	ContentTypeFrames = contentTypeFrames
)

// IdleConns reports how many idle connections the client's pool holds.
func (c *Client) IdleConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// ReadStream decodes a row stream body for the external tests — frames the
// way the Client does, NDJSON through readNDJSON — into every data line
// rendered as text (a record line with its proof's bytes, an analyze trailer
// without its wall times), then how the stream ended: the terminator's
// fields, or the error.
func ReadStream(body io.ReadCloser, contentType string) (lines []string, end string) {
	add := func(row provplan.Row, proof []byte) {
		if row.Analysis != nil {
			az := *row.Analysis
			az.Ops = append([]provplan.OpStat(nil), az.Ops...)
			for i := range az.Ops {
				az.Ops[i].NS = 0
			}
			row.Analysis = &az
		}
		lines = append(lines, rowText(row)+" proof="+hex.EncodeToString(proof))
	}
	read := readFrames
	if contentType != contentTypeFrames {
		read = readNDJSON
	}
	n, more, err := read(body, add)
	if err != nil {
		return lines, "error: " + err.Error()
	}
	return lines, fmt.Sprintf("eof n=%d more=%v", n, more)
}

// readFrames reads a framed body through a streamReader, handing each data
// line to add, and returns the terminator's fields or the error.
func readFrames(body io.ReadCloser, add func(provplan.Row, []byte)) (n int, more bool, err error) {
	sr := &streamReader{ctx: context.Background(), label: "test"}
	sr.read(body, contentTypeFrames)
	defer sr.close()
	for sr.next() {
		row, _ := sr.row() // a query stream's line always converts
		add(row, sr.proofRaw)
	}
	return sr.line.N, sr.line.More, sr.err
}

// readNDJSON reads an NDJSON body — what renderNDJSON renders — as a
// json.Decoder over streamLine, handing each data line to add converted
// back to a row with its proof's bytes, and returns the terminator's fields
// or the error, worded as the streamReader words them.
func readNDJSON(body io.ReadCloser, add func(provplan.Row, []byte)) (n int, more bool, err error) {
	defer body.Close() //nolint:errcheck // only read
	dec := json.NewDecoder(body)
	for lines := 0; ; lines++ {
		var l streamLine
		if err := dec.Decode(&l); err == io.EOF {
			return 0, false, fmt.Errorf("provhttp: test: stream truncated after %d lines (missing eof terminator)", lines)
		} else if err != nil {
			return 0, false, fmt.Errorf("provhttp: test: %w", err)
		}
		switch {
		case l.Err != "":
			return 0, false, fmt.Errorf("provhttp: test: server error mid-stream: %s", l.Err)
		case l.EOF && l.N != lines:
			return 0, false, fmt.Errorf("provhttp: test: stream carried %d lines, terminator says %d", lines, l.N)
		case l.EOF && dec.More():
			return 0, false, errors.New("provhttp: test: bytes after the eof terminator")
		case l.EOF:
			return l.N, l.More, nil
		}
		row, proof, err := lineRow(&l)
		if err != nil {
			return 0, false, fmt.Errorf("provhttp: test: %w", err)
		}
		add(row, proof)
	}
}

// lineRow converts an NDJSON data line back into the row it renders, with
// its proof's bytes.
func lineRow(l *streamLine) (provplan.Row, []byte, error) {
	switch {
	case l.R != nil:
		rec, err := l.R.record()
		if err != nil {
			return provplan.Row{}, nil, err
		}
		proof, err := hex.DecodeString(l.P)
		return provplan.Row{Kind: provplan.RowRecord, Rec: rec}, proof, err
	case l.Tid != 0:
		return provplan.Row{Kind: provplan.RowTid, Tid: l.Tid}, nil, nil
	case l.V != nil:
		return provplan.Row{Kind: provplan.RowValue, Val: l.V.Val, Found: l.V.Found}, nil, nil
	case l.Ev != nil:
		ev, err := l.Ev.parse()
		return provplan.Row{Kind: provplan.RowEvent, Event: provplan.Event(ev)}, nil, err
	case l.End != nil:
		ext, err := path.Parse(l.End.External)
		for _, o := range []provplan.Origin{provplan.OriginInserted, provplan.OriginExternal, provplan.OriginPreexisting} {
			if o.String() == l.End.Origin {
				return provplan.Row{Kind: provplan.RowEnd, Origin: o, External: ext}, nil, err
			}
		}
		return provplan.Row{}, nil, fmt.Errorf("unknown trace origin %q", l.End.Origin)
	case l.Az != nil:
		return provplan.Row{Kind: provplan.RowAnalyze, Analysis: l.Az}, nil, nil
	default:
		return provplan.Row{}, nil, errors.New("blank stream line")
	}
}
