package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func respWithRetryAfter(v string) *http.Response {
	h := http.Header{}
	if v != "" {
		h.Set("Retry-After", v)
	}
	return &http.Response{Header: h}
}

// TestRetryAfterForms pins both RFC 9110 Retry-After forms: integer
// seconds and HTTP-date (the form the seed client silently dropped,
// retrying immediately).
func TestRetryAfterForms(t *testing.T) {
	if d := retryAfter(nil); d != 0 {
		t.Errorf("nil response: %v, want 0", d)
	}
	if d := retryAfter(respWithRetryAfter("")); d != 0 {
		t.Errorf("absent header: %v, want 0", d)
	}
	if d := retryAfter(respWithRetryAfter("3")); d != 3*time.Second {
		t.Errorf("integer form: %v, want 3s", d)
	}
	for _, v := range []string{"0", "-2", "garbage"} {
		if d := retryAfter(respWithRetryAfter(v)); d != 0 {
			t.Errorf("%q: %v, want 0", v, d)
		}
	}
	// HTTP-date form: a date ~10s out must yield a positive delay close
	// to the remaining time (HTTP-dates have 1s resolution, and a little
	// wall clock elapses between formatting and parsing).
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	d := retryAfter(respWithRetryAfter(future))
	if d <= 7*time.Second || d > 10*time.Second {
		t.Errorf("HTTP-date form: %v, want ~10s", d)
	}
	// A past date means "retry now", not a negative sleep.
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := retryAfter(respWithRetryAfter(past)); d != 0 {
		t.Errorf("past HTTP-date: %v, want 0", d)
	}
}

// TestWaitStreamLargeEvent: the stream reader's line buffer starts at a
// few KB, so a terminal state event far larger than that (a big figure
// result) must still decode in one piece.
func TestWaitStreamLargeEvent(t *testing.T) {
	big := strings.Repeat("x", 300<<10)
	body, err := json.Marshal(Job{ID: "j1", State: StateDone, Error: big})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "id: 1\nevent: state\ndata: %s\n\n", body)
	}))
	defer srv.Close()
	j, err := NewClient(srv.URL).WaitProgress(context.Background(), "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone || j.Error != big {
		t.Fatalf("decoded state %q with a %d-byte payload, want done with %d bytes", j.State, len(j.Error), len(big))
	}
}
