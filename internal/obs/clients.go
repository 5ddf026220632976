package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is per-client attribution: a view over the flight log that sums
// its records per client identity (the X-Collab-Client header, falling back
// to the peer address) when it is read. It answers "who is consuming this
// server" over the requests the log holds, at GET /v1/clients and in
// `collab stats -clients`.

// ClientIDHeader names the HTTP header carrying a client's self-declared
// identity for per-client attribution. Absent, the middleware falls back
// to the connection's remote address.
const ClientIDHeader = "X-Collab-Client"

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

// ClientStats is one client's consumption over the requests the flight log
// holds. Field order is the JSON contract (byte-stable WriteJSON,
// golden-tested).
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

// ClientReport is the /v1/clients view: one row per client, sorted by client
// identity.
type ClientReport struct {
	Count   int           `json:"count"`
	Clients []ClientStats `json:"clients"`
}

// NewClientReport sums flight-log records per client; an empty client label
// is counted as "unknown". The rows cannot outnumber the records, so the
// log's capacity bounds the view.
func NewClientReport(reqs []Request) ClientReport {
	rows := []ClientStats{}
	at := make(map[string]int)
	for i := range reqs {
		s := &reqs[i]
		client := s.Client
		if client == "" {
			client = "unknown"
		}
		j, ok := at[client]
		if !ok {
			j = len(rows)
			at[client] = j
			rows = append(rows, ClientStats{Client: client})
		}
		row := &rows[j]
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
	sort.Slice(rows, func(i, j int) bool { return rows[i].Client < rows[j].Client })
	return ClientReport{Count: len(rows), Clients: rows}
}

// WriteJSON renders the report as byte-stable JSON.
func (r ClientReport) WriteJSON(w io.Writer) error { return WriteJSON(w, r) }

// WriteText renders the report as a fixed-width text table.
func (r ClientReport) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %6s %14s %12s %12s %14s %12s\n",
		"CLIENT", "REQS", "ERRS", "WALL_NS", "BYTES_IN", "BYTES_OUT", "LOCKWAIT_NS", "PLAN_NS")
	for _, c := range r.Clients {
		fmt.Fprintf(&b, "%-24s %8d %6d %14d %12d %12d %14d %12d\n",
			c.Client, c.Requests, c.Errors, c.WallNS, c.BytesIn, c.BytesOut, c.LockWaitNS, c.PlanNS)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
