package httpretry

import (
	"encoding/json"

	"soundboost/api"
)

// SessionsURL is the streaming-session collection of the /v1 service
// rooted at base (e.g. "http://127.0.0.1:8713"). It is the one place a
// client spells a session route; everything else addresses a Session.
func SessionsURL(base string) string { return base + "/" + api.Version + "/sessions" }

// Session is one streaming session on one server, addressed through the
// retrying Client that made it. Every request rides that client's retry
// budget and backoff.
type Session struct {
	// ID is the server's session id.
	ID string
	// State is the state the server answered the open with (empty for a
	// Session from SessionAt).
	State string

	c   *Client
	url string
}

// OpenSession creates a session on the service at base.
func (c *Client) OpenSession(base string, req api.SessionRequest) (*Session, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var created api.SessionResponse
	if err := c.Do("POST", SessionsURL(base), body, &created); err != nil {
		return nil, err
	}
	s := c.SessionAt(base, created.ID)
	s.State = created.State
	return s, nil
}

// SessionAt addresses an existing session by id, without a round trip.
func (c *Client) SessionAt(base, id string) *Session {
	return &Session{ID: id, c: c, url: SessionsURL(base) + "/" + id}
}

// Post sends one chunk to the session's frames route. The body is
// api.EncodeChunk's: a chunk api.DecodeStrict parsed goes out as the
// bytes it arrived in, and a chunk built in code as json.Marshal writes
// it.
func (s *Session) Post(chunk api.FramesRequest) (api.FramesResponse, error) {
	var resp api.FramesResponse
	body, err := api.EncodeChunk(chunk)
	if err != nil {
		return resp, err
	}
	err = s.c.Do("POST", s.url+"/frames", body, &resp)
	return resp, err
}

// Report reads the session's verdict. The server holds the request until
// the engine's flush lands, so a client that posted its Close chunk
// reads the report directly, without polling. A session whose engine
// died answers 500 session_failed, surfaced as a *StatusError; Status
// then carries the recorded cause.
func (s *Session) Report() (api.Report, error) {
	var report api.Report
	err := s.c.Do("GET", s.url+"/report", nil, &report)
	return report, err
}

// Status reads the session's live snapshot.
func (s *Session) Status() (api.SessionStatus, error) {
	var st api.SessionStatus
	err := s.c.Do("GET", s.url+"/status", nil, &st)
	return st, err
}

// Do round-trips one request to a route under the session
// (suffix "/journal", "/journal/append", ...) with the body as given —
// the gateway's path for forwarding bytes it already holds.
func (s *Session) Do(method, suffix string, body []byte, out any) error {
	return s.c.Do(method, s.url+suffix, body, out)
}

// PostFlight uploads a raw .sbf recording to the service at base for
// one-shot batch RCA.
func (c *Client) PostFlight(base string, sbf []byte) (api.FlightResponse, error) {
	var out api.FlightResponse
	err := c.Do("POST", base+"/"+api.Version+"/flights", sbf, &out)
	return out, err
}
