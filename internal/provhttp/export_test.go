package provhttp

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/provplan"
)

// The names the external tests (package provhttp_test) use for the two forms
// of the row stream.
const (
	ContentTypeNDJSON = contentTypeNDJSON
	ContentTypeFrames = contentTypeFrames
)

// ReadStream decodes a row stream body the way the Client does, for the
// external tests: every data line rendered as text (a record line with its
// proof's bytes, an analyze trailer without its wall times), then how the
// stream ended — the terminator's fields, or the error.
func ReadStream(body io.ReadCloser, contentType string) (lines []string, end string) {
	sr := &streamReader{ctx: context.Background(), label: "test"}
	sr.read(body, contentType)
	defer sr.close()
	for sr.next() {
		row, err := sr.row()
		if err != nil {
			return lines, "line does not convert: " + err.Error()
		}
		if row.Analysis != nil {
			az := *row.Analysis
			az.Ops = append([]provplan.OpStat(nil), az.Ops...)
			for i := range az.Ops {
				az.Ops[i].NS = 0
			}
			row.Analysis = &az
		}
		lines = append(lines, rowText(row)+" proof="+hex.EncodeToString(sr.proofRaw))
	}
	if sr.err != nil {
		return lines, "error: " + sr.err.Error()
	}
	return lines, fmt.Sprintf("eof n=%d more=%v", sr.line.N, sr.line.More)
}
