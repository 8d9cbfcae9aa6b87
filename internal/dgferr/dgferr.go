// Package dgferr defines the public error taxonomy of the datagridflow
// reproduction. Every component (namespace, vfs, dgms, matrix, wire)
// classifies its failures against the sentinel classes here, so callers
// program against errors.Is(err, dgferr.ErrResourceDown) instead of
// matching strings — and so the retry machinery can distinguish
// transient faults (worth retrying) from permanent ones (fail fast).
//
// The taxonomy survives the wire: Encode prefixes an error string with a
// stable class code, and Decode on the receiving side rebuilds an error
// for which errors.Is against the same sentinel still holds. The root
// package re-exports every sentinel (datagridflow.ErrNotFound, ...).
package dgferr

import (
	"errors"
	"strings"
)

// Class is an error class sentinel. It compares by identity (errors.Is)
// and carries the stable wire code for the class.
type Class struct {
	code string
	msg  string
}

// Error implements error.
func (c *Class) Error() string { return c.msg }

// The error classes. Transient classes (ErrResourceDown, ErrTimeout) are
// retryable; the rest are permanent and fail fast under a retry policy.
var (
	// ErrRetryExhausted marks a step or request that failed after its
	// retry budget was spent. It wraps the final attempt's error.
	ErrRetryExhausted = &Class{"retry-exhausted", "retries exhausted"}
	// ErrProtocol marks a wire protocol version or framing mismatch.
	ErrProtocol = &Class{"protocol", "protocol mismatch"}
	// ErrPermission marks an operation denied by ACLs or vetoed.
	ErrPermission = &Class{"permission", "permission denied"}
	// ErrNotFound marks a missing path, object, resource or execution.
	ErrNotFound = &Class{"not-found", "not found"}
	// ErrExists marks a collision with an existing entry or replica.
	ErrExists = &Class{"exists", "already exists"}
	// ErrCapacity marks a resource that is full.
	ErrCapacity = &Class{"capacity", "capacity exceeded"}
	// ErrInvalid marks a malformed document, path or argument.
	ErrInvalid = &Class{"invalid", "invalid"}
	// ErrCancelled marks an execution stopped by Cancel or a context.
	ErrCancelled = &Class{"cancelled", "cancelled"}
	// ErrTimeout marks a step or request that exceeded its deadline.
	// Transient: the operation may succeed on a retry.
	ErrTimeout = &Class{"timeout", "timed out"}
	// ErrResourceDown marks a storage resource, peer or link that is
	// offline or flaking. Transient: retry policies wait it out.
	ErrResourceDown = &Class{"resource-down", "resource unavailable"}
	// ErrAuth marks a missing, malformed, expired or forged tenant
	// token. Permanent: retrying with the same credentials cannot help.
	ErrAuth = &Class{"auth", "authentication failed"}
	// ErrQuota marks a tenant resource bound exceeded (flows in flight,
	// store bytes, delegation slots, submit rate). Permanent for retry
	// purposes: the caller must shed load or wait out its rate window,
	// not hammer the same request.
	ErrQuota = &Class{"quota", "quota exceeded"}
)

// classes lists every sentinel in Encode priority order: when an error
// chain carries several classes (ErrRetryExhausted wrapping
// ErrResourceDown), the first match here becomes the wire code.
var classes = []*Class{
	ErrRetryExhausted, ErrProtocol, ErrAuth, ErrQuota, ErrPermission,
	ErrNotFound, ErrExists, ErrCapacity, ErrInvalid, ErrCancelled,
	ErrTimeout, ErrResourceDown,
}

// fatal marks the classes a retry policy must not burn attempts on.
var fatal = map[*Class]bool{
	ErrRetryExhausted: true, ErrProtocol: true, ErrAuth: true,
	ErrQuota: true, ErrPermission: true, ErrNotFound: true,
	ErrExists: true, ErrCapacity: true, ErrInvalid: true,
	ErrCancelled: true,
}

// ClassOf returns the highest-priority class in err's chain, or nil.
func ClassOf(err error) *Class {
	if err == nil {
		return nil
	}
	for _, c := range classes {
		if errors.Is(err, c) {
			return c
		}
	}
	return nil
}

// Retryable reports whether a retry policy should re-attempt after err.
// Transient classes (ErrResourceDown, ErrTimeout) are retryable;
// permanent classes are not; unclassified errors default to retryable —
// an unknown failure is assumed transient, matching the engine's
// historical behaviour for user-defined operations.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if c := ClassOf(err); c != nil {
		return !fatal[c]
	}
	return true
}

// marked is an error bound to a class: Error() is the message alone,
// Unwrap exposes the class for errors.Is/As.
type marked struct {
	class *Class
	msg   string
}

func (m *marked) Error() string { return m.msg }
func (m *marked) Unwrap() error { return m.class }

// Mark builds a sentinel error belonging to a class. Packages use it for
// their own sentinels — vfs.ErrOffline = dgferr.Mark(ErrResourceDown,
// "vfs: resource offline") — so identity comparison against the package
// sentinel and class comparison against the taxonomy both work.
func Mark(class *Class, msg string) error { return &marked{class: class, msg: msg} }

// wirePrefix starts every encoded error string. The full format is
// "dgferr:<code>: <message>".
const wirePrefix = "dgferr:"

// Encode renders err for wire transport, prefixing the message with the
// chain's class code so the far side can rebuild a typed error.
// Unclassified errors pass through as their plain message.
func Encode(err error) string {
	if err == nil {
		return ""
	}
	if c := ClassOf(err); c != nil {
		return wirePrefix + c.code + ": " + err.Error()
	}
	return err.Error()
}

// Decode parses a wire error string back into an error. Encoded strings
// yield an error satisfying errors.Is against the encoded class; plain
// strings yield an opaque error. Empty input yields nil.
func Decode(s string) error {
	if s == "" {
		return nil
	}
	if rest, ok := strings.CutPrefix(s, wirePrefix); ok {
		if code, msg, ok := strings.Cut(rest, ": "); ok {
			for _, c := range classes {
				if c.code == code {
					return &marked{class: c, msg: msg}
				}
			}
		}
	}
	return errors.New(s)
}
