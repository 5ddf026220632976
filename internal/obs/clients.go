package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// This file is the per-client attribution table: a bounded accounting map
// keyed by client identity (the X-Collab-Client header, falling back to
// the peer address) that the serving middleware feeds one finished request
// at a time. It answers "who is consuming this server" — the tenancy
// signal the future sharding/quota work needs — at GET /v1/clients and in
// `collab stats`.

// ClientIDHeader names the HTTP header carrying a client's self-declared
// identity for per-client attribution. Absent, the middleware falls back
// to the connection's remote address.
const ClientIDHeader = "X-Collab-Client"

// OverflowClientID is the reserved bucket absorbing clients beyond the
// table's capacity, so an open server cannot be grown without bound by
// spoofed identities.
const OverflowClientID = "(other)"

// DefaultClientCap bounds a NewClientTable(0) table.
const DefaultClientCap = 64

// maxIDLen bounds a sanitized identity.
const maxIDLen = 64

// SanitizeID normalizes a client-supplied identity (X-Collab-Client,
// X-Collab-Request): surrounding space trimmed, non-printable and non-ASCII
// runes replaced with '_', length capped. Returns "" for an effectively
// empty identity, and a clean one as it is, without allocating.
func SanitizeID(s string) string {
	s = strings.TrimSpace(s)
	unprintable := func(r rune) bool { return r <= 0x20 || r > 0x7e }
	if len(s) <= maxIDLen && !strings.ContainsFunc(s, unprintable) {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		if b.Len() >= maxIDLen {
			break
		}
		if unprintable(r) {
			r = '_'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// ClientStats is one client's accumulated consumption. Field order is the
// JSON contract (byte-stable WriteJSON, golden-tested).
type ClientStats struct {
	Client   string `json:"client"`
	Requests int64  `json:"requests"`
	// Errors counts requests answered with status >= 400.
	Errors   int64 `json:"errors"`
	WallNS   int64 `json:"wall_ns"`
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// LockWaitNS is time this client's requests spent queued on the server
	// mutex; PlanNS is serialized optimizer time spent on their behalf —
	// together, the per-client contention footprint.
	LockWaitNS int64 `json:"lock_wait_ns"`
	PlanNS     int64 `json:"plan_ns"`
}

// ClientTable is a bounded, race-safe per-client accounting table. A nil
// table drops observations and serves empty snapshots, so callers hold it
// without guards.
type ClientTable struct {
	mu   sync.Mutex
	capN int
	m    map[string]*ClientStats
}

// NewClientTable returns a table tracking at most n distinct clients
// (n <= 0 selects DefaultClientCap); the n+1-th client and beyond fold
// into the OverflowClientID bucket.
func NewClientTable(n int) *ClientTable {
	if n <= 0 {
		n = DefaultClientCap
	}
	return &ClientTable{capN: n, m: make(map[string]*ClientStats)}
}

// Cap returns the distinct-client capacity.
func (t *ClientTable) Cap() int {
	if t == nil {
		return 0
	}
	return t.capN
}

// Len returns the number of tracked clients (including the overflow
// bucket once it exists).
func (t *ClientTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Observe folds one finished request into its client's row. Unknown
// clients beyond the capacity land in the overflow bucket; an empty
// client label is recorded as "unknown".
func (t *ClientTable) Observe(s *Request) {
	if t == nil {
		return
	}
	client := s.Client
	if client == "" {
		client = "unknown"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.m[client]
	if row == nil {
		if len(t.m) >= t.capN && client != OverflowClientID {
			client = OverflowClientID
			row = t.m[client]
		}
		if row == nil {
			row = &ClientStats{Client: client}
			t.m[client] = row
		}
	}
	row.Requests++
	if s.Status >= 400 {
		row.Errors++
	}
	row.WallNS += s.WallNanos
	row.BytesIn += s.BytesIn
	row.BytesOut += s.BytesOut
	row.LockWaitNS += s.LockWaitNanos
	row.PlanNS += s.PlanNanos
}

// Snapshot returns the per-client rows sorted by client identity — a
// deterministic copy, safe to hold across further recording.
func (t *ClientTable) Snapshot() []ClientStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]ClientStats, 0, len(t.m))
	for _, row := range t.m {
		out = append(out, *row)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// clientsExport is the JSON envelope of WriteJSON / GET /v1/clients.
type clientsExport struct {
	Count   int           `json:"count"`
	Clients []ClientStats `json:"clients"`
}

// WriteJSON renders the table as byte-stable JSON: an object with the
// client count and the rows sorted by client identity.
func (t *ClientTable) WriteJSON(w io.Writer) error {
	rows := t.Snapshot()
	if rows == nil {
		rows = []ClientStats{}
	}
	return WriteJSON(w, clientsExport{Count: len(rows), Clients: rows})
}

// WriteText renders the table as a fixed-width text report.
func (t *ClientTable) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %6s %14s %12s %12s %14s %12s\n",
		"CLIENT", "REQS", "ERRS", "WALL_NS", "BYTES_IN", "BYTES_OUT", "LOCKWAIT_NS", "PLAN_NS")
	for _, r := range t.Snapshot() {
		fmt.Fprintf(&b, "%-24s %8d %6d %14d %12d %12d %14d %12d\n",
			r.Client, r.Requests, r.Errors, r.WallNS, r.BytesIn, r.BytesOut, r.LockWaitNS, r.PlanNS)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
