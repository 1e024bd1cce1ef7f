package campaign

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nsmac/internal/sweep"
)

// tamperLeases serves s, rewriting the fingerprint of the grants that
// tamper selects by their 1-based lease-response number.
func tamperLeases(t *testing.T, s *Server, tamper func(n int) bool) *Client {
	t.Helper()
	h := Handler(s)
	n := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/lease" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			n++
			if tamper(n) {
				var grant LeaseGrant
				if err := json.Unmarshal(body, &grant); err != nil {
					t.Error(err)
				}
				grant.Fingerprint = strings.Repeat("0", len(grant.Fingerprint))
				body, _ = json.Marshal(grant)
			}
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(hs.Close)
	return NewClient(hs.URL, hs.Client())
}

// TestWorkerChecksFingerprintWithCachedPlan: once a worker has planned a
// grid, a grant for that grid whose fingerprint no longer matches still
// fails its lease instead of running on the cached plan, and the honest
// re-lease of the same shard completes.
func TestWorkerChecksFingerprintWithCachedPlan(t *testing.T) {
	s := NewServer(Options{LeaseTimeout: 30 * time.Second})
	cl := tamperLeases(t, s, func(n int) bool { return n == 2 })
	doc := testDoc(t)
	id, err := s.Submit(SingleGrid("t", "g", doc, 2))
	if err != nil {
		t.Fatal(err)
	}
	var events []WorkerEvent
	w := &Worker{Client: cl, ID: "w", Poll: time.Millisecond, MaxLeases: 3,
		OnEvent: func(ev WorkerEvent) { events = append(events, ev) }}
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var outcomes []string
	for _, ev := range events {
		switch ev.Event {
		case "complete":
			outcomes = append(outcomes, ev.Event)
		case "fail":
			if !strings.Contains(ev.Error, "fingerprint mismatch") {
				t.Errorf("lease failed for another reason: %s", ev.Error)
			}
			outcomes = append(outcomes, ev.Event)
		}
	}
	if got := strings.Join(outcomes, ","); got != "complete,fail,complete" {
		t.Fatalf("lease outcomes %s, want complete,fail,complete", got)
	}
	got, done, total, err := s.Results(id, "g", "text")
	if err != nil || done != total {
		t.Fatalf("results %d/%d: %v", done, total, err)
	}
	if got != wholeRender(t, doc, "text") {
		t.Error("results differ from the one-process run")
	}
}

// TestWorkerReplansForEachCampaign: one worker drains two campaigns in turn
// (same grid ID and shard count, different documents) and runs each
// against its own plan, so both results equal their one-process runs.
func TestWorkerReplansForEachCampaign(t *testing.T) {
	s, cl := startServer(t, Options{LeaseTimeout: 30 * time.Second})
	first := testDoc(t)
	second := testDoc(t)
	second.Name, second.Seed = "campaign-test-2", 12
	second.Patterns = []string{"uniform:16", "spoiler"}
	w := &Worker{Client: cl, ID: "w", Poll: time.Millisecond, MaxLeases: 3}
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	for _, doc := range []sweep.SpecDoc{first, second} {
		id, err := s.Submit(SingleGrid("t", "g", doc, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"text", "csv", "json"} {
			got, done, total, err := s.Results(id, "g", format)
			if err != nil || done != total {
				t.Fatalf("%s: %s results %d/%d: %v", doc.Name, format, done, total, err)
			}
			if got != wholeRender(t, doc, format) {
				t.Errorf("%s: %s results differ from the one-process run", doc.Name, format)
			}
		}
	}
}
