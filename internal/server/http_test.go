package server

// Control-plane HTTP surface tests: method discipline (405 + Allow), error
// status mapping, and a fuzz target over the create-request parser — the
// server's largest attacker-controlled input.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestMethodNotAllowed: every route registered with a method pattern
// answers wrong-method hits with 405 and an Allow header, not a handler
// error or a 404.
func TestMethodNotAllowed(t *testing.T) {
	_, c := newTestServer(t, Options{})
	c.create(testConfig("m", 1))
	cases := []struct{ method, path string }{
		{"DELETE", "/v1/streams"},
		{"PUT", "/v1/streams/m"},
		{"GET", "/v1/streams/m/records"},
		{"DELETE", "/v1/streams/m/close"},
		{"GET", "/v1/streams/m/pause"},
		{"POST", "/v1/streams/m/windows"},
	}
	for _, tc := range cases {
		resp, _ := c.do(tc.method, tc.path, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if resp.Header.Get("Allow") == "" {
			t.Errorf("%s %s: 405 without an Allow header", tc.method, tc.path)
		}
	}
}

// TestErrorStatusMapping: 404 for unknown streams, 400 for malformed
// create bodies (and for raw streams, which would serve true supports,
// negative checkpoint knobs, and checkpoint_every without a data dir), 409
// for duplicates, 400 for bad query parameters.
func TestErrorStatusMapping(t *testing.T) {
	_, c := newTestServer(t, Options{})
	c.create(testConfig("dup", 1))

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/streams/ghost", "", http.StatusNotFound},
		{"DELETE", "/v1/streams/ghost", "", http.StatusNotFound},
		{"POST", "/v1/streams/ghost/records", "1 2\n", http.StatusNotFound},
		{"POST", "/v1/streams/ghost/close", "", http.StatusNotFound},
		{"GET", "/v1/streams/ghost/windows", "", http.StatusNotFound},
		{"POST", "/v1/streams", "", http.StatusBadRequest},
		{"POST", "/v1/streams", "{not json", http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"bad id!"}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"negdepth","queue_depth":-1}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"noscheme","window":10,"scheme":"nope"}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"biggamma","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"scheme":"hybrid","lambda":0.4,"gamma":18}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"okgamma","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"scheme":"hybrid","lambda":0.4,"gamma":8}`, http.StatusCreated},
		{"POST", "/v1/streams", `{"id":"raw","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"scheme":"hybrid","lambda":0.4,"raw":true}`, http.StatusBadRequest},
		// Unknown fields are refused, not ignored: a create cannot resume.
		{"POST", "/v1/streams", `{"id":"resume","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"resume":true}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"unknown","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"no_such_knob":1}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"trailing","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5} {}`, http.StatusBadRequest},
		// A memory-only stream snapshots every window and takes no
		// checkpoint_every; the disk-only knobs are still range-checked.
		{"POST", "/v1/streams", `{"id":"memckpt","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"checkpoint_every":3}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"negevery","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"checkpoint_every":-1}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"negkeep","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"checkpoint_keep":-1}`, http.StatusBadRequest},
		{"POST", "/v1/streams", `{"id":"negfull","window":100,"epsilon":0.1,"delta":0.4,"min_support":10,"vuln_support":5,"checkpoint_full_every":-1}`, http.StatusBadRequest},
		{"GET", "/v1/streams/dup/windows?from=abc", "", http.StatusBadRequest},
		{"GET", "/v1/streams/dup/trace", "", http.StatusNotFound}, // created without trace_windows
	} {
		var body *strings.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		} else {
			body = strings.NewReader("")
		}
		resp, b := c.do(tc.method, tc.path, body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: %d %s, want %d", tc.method, tc.path, resp.StatusCode, b, tc.want)
		}
	}

	// Duplicate create is a conflict, and the error body is JSON.
	cfgJSON, _ := json.Marshal(testConfig("dup", 1))
	resp, body := c.do("POST", "/v1/streams", strings.NewReader(string(cfgJSON)))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d %s, want 409", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("409 body %q is not an error JSON", body)
	}

	// Oversized create bodies are refused, not truncated.
	huge := `{"id":"big","window":100,"scheme":"` + strings.Repeat("x", 1<<20) + `"}`
	if resp, _ = c.do("POST", "/v1/streams", strings.NewReader(huge)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized create body: %d, want 400", resp.StatusCode)
	}
}

// FuzzCreateRequest fuzzes the create-stream request parser. The invariants:
// never panic, and any config it accepts satisfies its own validator (so a
// crafted body cannot smuggle an invalid id into checkpoint paths or URLs).
func FuzzCreateRequest(f *testing.F) {
	valid, _ := json.Marshal(testConfig("seed-stream", 1))
	f.Add(string(valid))
	f.Add("")
	f.Add("{}")
	f.Add("{not json")
	f.Add(`{"id":"x","window":-5}`)
	f.Add(`{"id":"../../etc/passwd","window":100}`)
	f.Add(`{"id":"a","queue_depth":-9223372036854775808}`)
	f.Add(`{"id":"` + strings.Repeat("a", 100) + `"}`)
	f.Add(`{"id":"ok","scheme":"hybrid","lambda":1e308,"window":1}`)
	f.Add("[1,2,3]")
	f.Add(`"just a string"`)
	f.Fuzz(func(t *testing.T, body string) {
		cfg, err := parseCreateRequest([]byte(body))
		if err != nil {
			return
		}
		if verr := cfg.validate(); verr != nil {
			t.Fatalf("parseCreateRequest accepted a config its validator rejects: %v\nbody: %q", verr, body)
		}
		if !utf8.ValidString(cfg.ID) || strings.ContainsAny(cfg.ID, "/\\\x00") {
			t.Fatalf("accepted id %q is unsafe as a path segment", cfg.ID)
		}
	})
}
