package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// Request-ID context plumbing. The server assigns every HTTP request an ID
// and threads it through context.Context into the engines, which stamp it
// onto TraceEvents and span annotations — so an access-log line, a
// Prometheus exemplar-style trace fetch, and a Perfetto export from
// concurrent tenants can all be correlated back to one request. The key is
// unexported: this package is the one vocabulary both internal/server and
// internal/xr share without depending on each other.

type ctxKey int

const requestIDKey ctxKey = iota

// ContextWithRequestID returns a context carrying the request ID. An empty
// id returns ctx unchanged.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFromContext returns the request ID carried by ctx, or "" when
// none was attached (library use outside the daemon).
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// NewRequestID returns a 16-hex-char random ID: the shape the server
// stamps on HTTP requests and the store on quarantine records, so their
// log lines correlate alike. Should crypto/rand fail, it falls back to a
// time-derived ID rather than refusing the caller.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// SafeToken reports whether s is 1 to 64 characters from [A-Za-z0-9._-]:
// safe as a log field, a shell word and (apart from "." and "..") a file
// name. The server honors an inbound X-Request-Id only when it is one.
func SafeToken(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}
