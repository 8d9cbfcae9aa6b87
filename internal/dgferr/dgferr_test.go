package dgferr

import (
	"errors"
	"fmt"
	"testing"
)

func TestClassOfAndRetryable(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		class     *Class
		retryable bool
	}{
		{"nil", nil, nil, false},
		{"unclassified", errors.New("boom"), nil, true},
		{"resource-down", fmt.Errorf("op: %w", ErrResourceDown), ErrResourceDown, true},
		{"timeout", fmt.Errorf("op: %w", ErrTimeout), ErrTimeout, true},
		{"not-found", fmt.Errorf("op: %w", ErrNotFound), ErrNotFound, false},
		{"exists", fmt.Errorf("op: %w", ErrExists), ErrExists, false},
		{"permission", fmt.Errorf("op: %w", ErrPermission), ErrPermission, false},
		{"capacity", fmt.Errorf("op: %w", ErrCapacity), ErrCapacity, false},
		{"invalid", fmt.Errorf("op: %w", ErrInvalid), ErrInvalid, false},
		{"cancelled", fmt.Errorf("op: %w", ErrCancelled), ErrCancelled, false},
		{"protocol", fmt.Errorf("op: %w", ErrProtocol), ErrProtocol, false},
		{"exhausted", fmt.Errorf("op: %w", ErrRetryExhausted), ErrRetryExhausted, false},
		{"marked", Mark(ErrResourceDown, "vfs: offline"), ErrResourceDown, true},
		{"deep wrap", fmt.Errorf("a: %w", fmt.Errorf("b: %w", ErrTimeout)), ErrTimeout, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ClassOf(tc.err); got != tc.class {
				t.Errorf("ClassOf = %v, want %v", got, tc.class)
			}
			if got := Retryable(tc.err); got != tc.retryable {
				t.Errorf("Retryable = %v, want %v", got, tc.retryable)
			}
		})
	}
}

func TestClassPriority(t *testing.T) {
	// A retry-exhausted error wrapping the transient cause must classify
	// (and encode) as retry-exhausted, not as the inner class.
	err := fmt.Errorf("%w: step s after 3 attempts: %w", ErrRetryExhausted,
		fmt.Errorf("ingest: %w", ErrResourceDown))
	if !errors.Is(err, ErrRetryExhausted) || !errors.Is(err, ErrResourceDown) {
		t.Fatalf("double wrap lost a class: %v", err)
	}
	if got := ClassOf(err); got != ErrRetryExhausted {
		t.Errorf("ClassOf = %v, want ErrRetryExhausted", got)
	}
	if Retryable(err) {
		t.Errorf("exhausted error is retryable")
	}
}

func TestMark(t *testing.T) {
	sentinel := Mark(ErrResourceDown, "vfs: resource offline")
	wrapped := fmt.Errorf("ingest f1: %w", sentinel)
	if !errors.Is(wrapped, sentinel) {
		t.Errorf("identity comparison against the package sentinel failed")
	}
	if !errors.Is(wrapped, ErrResourceDown) {
		t.Errorf("class comparison failed")
	}
	if sentinel.Error() != "vfs: resource offline" {
		t.Errorf("Error() = %q", sentinel.Error())
	}
	var cls *Class
	if !errors.As(wrapped, &cls) || cls != ErrResourceDown {
		t.Errorf("errors.As = %v", cls)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, c := range classes {
		err := fmt.Errorf("something failed: %w", c)
		s := Encode(err)
		want := "dgferr:" + c.code + ": " + err.Error()
		if s != want {
			t.Errorf("Encode(%s) = %q, want %q", c.code, s, want)
		}
		back := Decode(s)
		if !errors.Is(back, c) {
			t.Errorf("Decode(%q) lost class %s", s, c.code)
		}
		if Retryable(back) != Retryable(err) {
			t.Errorf("retryability changed over the wire for %s", c.code)
		}
	}
}

func TestEncodeDecodeEdgeCases(t *testing.T) {
	if Encode(nil) != "" {
		t.Errorf("Encode(nil) = %q", Encode(nil))
	}
	if Decode("") != nil {
		t.Errorf("Decode(\"\") != nil")
	}
	// Unclassified errors pass through as plain strings.
	plain := errors.New("just text")
	if got := Encode(plain); got != "just text" {
		t.Errorf("Encode(plain) = %q", got)
	}
	back := Decode("just text")
	if back == nil || back.Error() != "just text" || ClassOf(back) != nil {
		t.Errorf("Decode(plain) = %v", back)
	}
	// An unknown code degrades to an opaque error, not a panic.
	odd := Decode("dgferr:future-class: something")
	if odd == nil || ClassOf(odd) != nil {
		t.Errorf("Decode(unknown code) = %v", odd)
	}
}
