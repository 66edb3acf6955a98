package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"fexiot/internal/eventlog"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
)

// The /v1 surface speaks one error vocabulary: every endpoint — detect,
// explain, status, streams — maps its failures through ErrorStatus onto
// exactly one of these codes, and every error body is the same
// ErrorEnvelope. Handlers never invent their own status mapping; they wrap
// a sentinel (or let an engine error propagate) and call WriteError.
const (
	CodeOverloaded       = "overloaded"
	CodeNotReady         = "not_ready"
	CodeDeadline         = "deadline"
	CodeBadRequest       = "bad_request"
	CodeTooLarge         = "too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeInternal         = "internal"
)

// Sentinel errors of the HTTP surface. Handlers wrap them with context
// (fmt.Errorf("%w: …")) so ErrorStatus can classify by errors.Is while the
// message stays specific.
var (
	// ErrBadRequest reports a request the server understood transport-wise
	// but cannot act on: malformed JSON, an empty rule set, an event batch
	// that parses to nothing.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrTooLarge reports a request body over the configured cap.
	ErrTooLarge = errors.New("serve: request body too large")
	// ErrNotFound reports an unknown /v1 path or an unknown resource id
	// (a closed or never-created stream session).
	ErrNotFound = errors.New("serve: not found")
	// ErrMethodNotAllowed reports a known path hit with the wrong verb.
	ErrMethodNotAllowed = errors.New("serve: method not allowed")
	// ErrUnsupportedMedia reports a body-carrying request without an
	// acceptable Content-Type.
	ErrUnsupportedMedia = errors.New("serve: unsupported media type")
)

// APIError is the structured error object inside ErrorEnvelope.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the error body of every /v1 endpoint:
//
//	{"error":{"code":"overloaded","message":"…"}}
type ErrorEnvelope struct {
	Err APIError `json:"error"`
}

// Envelope builds the ErrorEnvelope for err using the shared mapping.
func Envelope(err error) ErrorEnvelope {
	_, code := ErrorStatus(err)
	return ErrorEnvelope{Err: APIError{Code: code, Message: err.Error()}}
}

// ErrorStatus is the single sentinel-error→(HTTP status, code) mapping of
// the /v1 surface. Every handler — engine endpoints, status, streams —
// routes its errors through here, so a given failure always produces the
// same status and code no matter which endpoint surfaced it.
func ErrorStatus(err error) (int, string) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, CodeOverloaded
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, CodeNotReady
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, CodeDeadline
	case errors.Is(err, ErrTooLarge), errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, CodeTooLarge
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, ErrMethodNotAllowed):
		return http.StatusMethodNotAllowed, CodeMethodNotAllowed
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrUnsupportedMedia):
		return http.StatusUnsupportedMediaType, CodeUnsupportedMedia
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// WriteJSON writes one complete JSON response. The body is marshalled
// before any byte reaches the wire: a marshalling failure degrades into a
// well-formed internal-error envelope instead of a 200 header followed by
// truncated JSON (the failure mode of encoding straight into the
// ResponseWriter). Every response carries X-Content-Type-Options: nosniff.
// The returned error is the network write error, if any — by then the
// status line is out, so callers can only count it.
func WriteJSON(w http.ResponseWriter, status int, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		status = http.StatusInternalServerError
		buf, _ = json.Marshal(Envelope(fmt.Errorf("encoding response: %v", err)))
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_, werr := w.Write(append(buf, '\n'))
	return werr
}

// WriteError maps err through ErrorStatus and writes the envelope. An
// overloaded error carries Retry-After: 1 so callers back off instead of
// hammering a saturated queue.
func WriteError(w http.ResponseWriter, err error) error {
	status, code := ErrorStatus(err)
	if code == CodeOverloaded {
		w.Header().Set("Retry-After", "1")
	}
	return WriteJSON(w, status, Envelope(err))
}

// AllowMethods enforces the uniform method discipline: when the request's
// verb is listed it returns true; otherwise it answers 405 with an Allow
// header naming the accepted verbs and the method_not_allowed envelope.
func AllowMethods(w http.ResponseWriter, req *http.Request, methods ...string) bool {
	for _, m := range methods {
		if req.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	WriteError(w, fmt.Errorf("%w: %s not accepted (allow: %s)",
		ErrMethodNotAllowed, req.Method, strings.Join(methods, ", ")))
	return false
}

// RequireContentType enforces the uniform body discipline: a
// body-carrying request must declare one of the accepted media types
// (parameters such as charset are ignored). On violation it answers 415
// with the unsupported_media_type envelope and returns false. With no
// accepted types given it requires application/json.
func RequireContentType(w http.ResponseWriter, req *http.Request, accepted ...string) bool {
	if len(accepted) == 0 {
		accepted = []string{"application/json"}
	}
	ct := req.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err == nil {
		for _, a := range accepted {
			if mt == a {
				return true
			}
		}
	}
	WriteError(w, fmt.Errorf("%w: Content-Type %q (send %s)",
		ErrUnsupportedMedia, ct, strings.Join(accepted, " or ")))
	return false
}

// ReadJSON decodes the request body — exactly one JSON value, then only
// whitespace — under a byte cap, classifying failures onto the shared
// sentinels: an overrun body wraps ErrTooLarge, anything else undecodable
// wraps ErrBadRequest. The caller passes the error straight to WriteError.
//
// A *DetectRequest in the plain shape json.Marshal emits is decoded by the
// one-pass scanner in decode.go; every other body, and every other v, goes
// through encoding/json, so what is accepted and every error message are
// the stdlib's.
func ReadJSON(w http.ResponseWriter, req *http.Request, maxBytes int64, v any) error {
	return ReadJSONCounted(w, req, maxBytes, v, nil)
}

// ReadJSONCounted is ReadJSON for a handler that exports metrics: fallbacks
// (see DecodeFallbacks; nil is a no-op) counts the bodies that took the
// encoding/json path.
func ReadJSONCounted(w http.ResponseWriter, req *http.Request, maxBytes int64,
	v any, fallbacks *obs.Counter) error {
	body, err := readBody(w, req, maxBytes)
	if err != nil {
		return err
	}
	if in, ok := v.(*DetectRequest); ok && decodeDetectRequest(body, in) {
		return nil
	}
	fallbacks.Inc()
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: bad JSON: %v", ErrBadRequest, err)
	}
	return nil
}

// ReadEvents decodes an NDJSON event batch — one JSON event object per
// line; any whitespace-separated concatenation of objects is accepted —
// under a byte cap, with ReadJSONCounted's error classification and
// fallback counting. A bad record's error names its 1-based position.
func ReadEvents(w http.ResponseWriter, req *http.Request, maxBytes int64,
	fallbacks *obs.Counter) ([]eventlog.Event, error) {
	body, err := readBody(w, req, maxBytes)
	if err != nil {
		return nil, err
	}
	if evs, ok := decodeEvents(body); ok {
		return evs, nil
	}
	fallbacks.Inc()
	return stdlibEvents(body)
}

// stdlibEvents is the encoding/json decoding of an NDJSON batch: the
// fallback of ReadEvents and the reference decodeEvents is tested against.
func stdlibEvents(body []byte) ([]eventlog.Event, error) {
	var evs []eventlog.Event
	for dec := json.NewDecoder(bytes.NewReader(body)); ; {
		var e eventlog.Event
		if err := dec.Decode(&e); err == io.EOF {
			return evs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%w: bad NDJSON at record %d: %v",
				ErrBadRequest, len(evs)+1, err)
		}
		evs = append(evs, e)
	}
}

// readBody reads the whole request body under the byte cap. The buffer is
// sized from Content-Length when the client declared one, so a large event
// log is read in one allocation instead of a doubling series.
func readBody(w http.ResponseWriter, req *http.Request, maxBytes int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := req.ContentLength; n > 0 && n <= maxBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, maxBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrTooLarge, tooBig.Limit)
		}
		return nil, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err)
	}
	return buf.Bytes(), nil
}

// ValidateRules is the one admission check on a request's rule set, shared
// by detect, explain and stream creation: fusion dereferences every rule,
// so an empty set or a JSON null among the rules is refused here.
func ValidateRules(rs []*rules.Rule) error {
	if len(rs) == 0 {
		return fmt.Errorf("%w: rules must be non-empty", ErrBadRequest)
	}
	for i, r := range rs {
		if r == nil {
			return fmt.Errorf("%w: rule %d is null", ErrBadRequest, i)
		}
	}
	return nil
}
