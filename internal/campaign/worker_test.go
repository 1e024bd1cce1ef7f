package campaign

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nsmac/internal/dispatch"
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

// TestWorkerChecksFingerprintWithCachedPlan: after a worker has run a shard
// of a grid, the Local executor holds that grid compiled, and a grant for
// the same document whose fingerprint no longer matches it still fails its
// lease — Local compares the grant's fingerprint with the memoized grid's
// before any trial runs — and the honest re-lease of the same shard
// completes from the memo. (The name predates the removal of the worker's
// plan cache; the cache it now covers is Local's compile memo.)
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
// (same grid ID and shard count, different documents) and runs each grant's
// own plan, so both results equal their one-process runs.
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

// TestShardZeroEventsCarryShard: every progress record about a shard
// carries "shard" in its JSON, shard 0 included — a Driver's complete
// events on a first run and its stored events on a resumed one — and an
// exit or idle record, which is about no shard, carries none.
func TestShardZeroEventsCarryShard(t *testing.T) {
	store := &dispatch.RunStore{Dir: t.TempDir()}
	fields := func(ev WorkerEvent) map[string]any {
		t.Helper()
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, want := range []string{"complete", "stored"} {
		var events []WorkerEvent
		d := &Driver{Store: store, Progress: func(ev WorkerEvent) { events = append(events, ev) }}
		if _, err := d.Run(t.Context(), testDoc(t), 2); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, ev := range events {
			m := fields(ev)
			shard, has := m["shard"]
			switch {
			case ev.Event == "exit" || ev.Event == "idle":
				if has {
					t.Errorf("%s record carries a shard: %v", ev.Event, m)
				}
			case !has:
				t.Errorf("%s record of shard %d carries no shard: %v", ev.Event, ev.Shard, m)
			case ev.Event == want && shard == 0.0:
				found = true
			}
		}
		if !found {
			t.Errorf("no %s record with \"shard\":0 among %+v", want, events)
		}
	}
	if m := fields(WorkerEvent{Event: "idle", Worker: "w"}); len(m) != 2 {
		t.Errorf("idle record %v, want event and worker only", m)
	}
}
