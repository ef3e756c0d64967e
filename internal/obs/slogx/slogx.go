// Package slogx is the repo's structured-logging convention on stdlib
// log/slog: key=value text records with per-process fields attached once at
// construction (node id for sss-server) and per-event fields at the call
// site (txn id, epoch, peer). It exists so every binary builds its logger
// the same way — level from SSS_LOG_LEVEL, consistent output — and so
// printf-style logging seams (clientproto's Logf) can be bridged into the
// same stream.
package slogx

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Level returns the log level selected by SSS_LOG_LEVEL
// (debug|info|warn|error, case-insensitive); unset or unknown means Info.
func Level() slog.Level {
	switch strings.ToLower(os.Getenv("SSS_LOG_LEVEL")) {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// New builds a key=value structured logger writing to w, with attrs
// attached to every record (e.g. slog.Int("node", id)).
func New(w io.Writer, attrs ...slog.Attr) *slog.Logger {
	var h slog.Handler = slog.NewTextHandler(w, &slog.HandlerOptions{Level: Level()})
	if len(attrs) > 0 {
		h = h.WithAttrs(attrs)
	}
	return slog.New(h)
}

// Logf bridges l into a printf-style logging seam: each call becomes one
// Info record whose message is the formatted string.
func Logf(l *slog.Logger) func(format string, args ...any) {
	return func(format string, args ...any) {
		l.Info(fmt.Sprintf(format, args...))
	}
}
