package hspan

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ghostbusters/internal/obs"
)

// jsonRecord is the wire shape of one span/v1 line, used only for
// decoding (the write path hand-renders for speed and determinism).
type jsonRecord struct {
	ID      uint64                     `json:"id"`
	Parent  uint64                     `json:"parent"`
	Name    string                     `json:"name"`
	StartNS int64                      `json:"start_ns"`
	EndNS   int64                      `json:"end_ns"`
	Attrs   map[string]json.RawMessage `json:"attrs"`
}

// ParseJSONL decodes a span/v1 stream (as written by obs.SpanWriter or the
// /v1/jobs/{id}/trace endpoint) back into records. The header line is
// validated and skipped; a stream with no header is also accepted so
// partial captures still parse.
func ParseJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if line == 1 {
			var h struct {
				Schema string `json:"schema"`
			}
			if err := json.Unmarshal(raw, &h); err == nil && h.Schema != "" {
				if h.Schema != obs.SpanSchema {
					return nil, fmt.Errorf("hspan: stream schema %q, want %q", h.Schema, obs.SpanSchema)
				}
				continue
			}
		}
		var jr jsonRecord
		if err := json.Unmarshal(raw, &jr); err != nil {
			return nil, fmt.Errorf("hspan: line %d: %w", line, err)
		}
		rec := Record{ID: jr.ID, Parent: jr.Parent, Name: jr.Name, Start: jr.StartNS, End: jr.EndNS}
		if len(jr.Attrs) > 0 {
			keys := make([]string, 0, len(jr.Attrs))
			for k := range jr.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				var i int64
				if err := json.Unmarshal(jr.Attrs[k], &i); err == nil {
					rec.Attrs = append(rec.Attrs, Int(k, i))
					continue
				}
				var s string
				if err := json.Unmarshal(jr.Attrs[k], &s); err != nil {
					return nil, fmt.Errorf("hspan: line %d: attr %q: %w", line, k, err)
				}
				rec.Attrs = append(rec.Attrs, Str(k, s))
			}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Node is one span in a reconstructed tree.
type Node struct {
	Record
	Children []*Node
}

// BuildTree links records into span trees by Parent, returning the
// roots (Parent 0 or parent not present in the set — a truncated
// capture degrades to a forest instead of dropping spans). Roots and
// children are ordered by start time, then ID, so reconstruction is
// deterministic regardless of emission order (children always flush
// before their parents).
func BuildTree(recs []Record) []*Node {
	nodes := make(map[uint64]*Node, len(recs))
	for i := range recs {
		nodes[recs[i].ID] = &Node{Record: recs[i]}
	}
	var roots []*Node
	for i := range recs {
		n := nodes[recs[i].ID]
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*Node)
	sortNodes = func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].Start != ns[j].Start {
				return ns[i].Start < ns[j].Start
			}
			return ns[i].ID < ns[j].ID
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}
