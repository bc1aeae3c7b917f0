package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// JSON codec for spans, mirroring the event codec (json.go): hand-rolled
// encode into a reused buffer on the sink path, encoding/json mirror
// structs on the read path, the two held byte-identical by a round-trip
// test. Optional fields are present iff non-zero — except "shard",
// whose zero value (shard 0) is meaningful and whose absent value is -1
// (not shard-local), so it is present iff >= 0.

// AppendSpanJSON appends the span as one compact JSON object (no
// trailing newline) and returns the extended buffer.
func AppendSpanJSON(buf []byte, sp *Span) []byte {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendUint(buf, sp.ID, 10)
	if sp.Parent != 0 {
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, sp.Parent, 10)
	}
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, sp.Kind.String()...)
	buf = append(buf, `","t0":`...)
	buf = appendFloat(buf, sp.Start.Seconds())
	buf = append(buf, `,"t1":`...)
	buf = appendFloat(buf, sp.End.Seconds())

	buf = appendStrField(buf, "app", sp.App)
	buf = appendStrField(buf, "object", sp.Object)
	buf = appendStrField(buf, "node", sp.Node)
	buf = appendStrField(buf, "detail", sp.Detail)

	if sp.Shard >= 0 {
		buf = append(buf, `,"shard":`...)
		buf = strconv.AppendInt(buf, int64(sp.Shard), 10)
	}
	if sp.WallNs != 0 {
		buf = append(buf, `,"wall_ns":`...)
		buf = strconv.AppendInt(buf, sp.WallNs, 10)
	}
	return append(buf, '}')
}

type jsonSpan struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent"`
	Kind   string  `json:"kind"`
	T0     float64 `json:"t0"`
	T1     float64 `json:"t1"`
	App    string  `json:"app"`
	Object string  `json:"object"`
	Node   string  `json:"node"`
	Detail string  `json:"detail"`
	Shard  *int32  `json:"shard"`
	WallNs int64   `json:"wall_ns"`
}

// ParseSpan decodes one JSON line produced by AppendSpanJSON.
func ParseSpan(line []byte) (Span, error) {
	var m jsonSpan
	if err := json.Unmarshal(line, &m); err != nil {
		return Span{}, fmt.Errorf("obs: bad span line: %w", err)
	}
	kind, ok := ParseSpanKind(m.Kind)
	if !ok {
		return Span{}, fmt.Errorf("obs: unknown span kind %q", m.Kind)
	}
	sp := Span{
		ID:     m.ID,
		Parent: m.Parent,
		Kind:   kind,
		App:    m.App,
		Object: m.Object,
		Node:   m.Node,
		Detail: m.Detail,
		Shard:  -1,
		Start:  time.Duration(math.Round(m.T0 * float64(time.Second))),
		End:    time.Duration(math.Round(m.T1 * float64(time.Second))),
		WallNs: m.WallNs,
	}
	if m.Shard != nil {
		sp.Shard = *m.Shard
	}
	return sp, nil
}

// ReadSpans decodes a whole JSONL span stream, skipping blank lines.
func ReadSpans(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		sp, err := ParseSpan(b)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		out = append(out, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteSpansJSONL writes spans as one JSON object per line.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	var buf []byte
	for i := range spans {
		buf = AppendSpanJSON(buf[:0], &spans[i])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
