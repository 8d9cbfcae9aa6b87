package namespace

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// refCleanPath is CleanPath as it stood before the canonical fast path:
// split, filter, join, always. It lives here, and only here, as the
// reference the fuzz target holds the in-place scan to.
func refCleanPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%w: %q must be absolute", ErrBadPath, p)
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		switch part {
		case "", ".":
			continue
		case "..":
			return "", fmt.Errorf("%w: %q contains '..'", ErrBadPath, p)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}

func refSplitPath(p string) ([]string, error) {
	clean, err := refCleanPath(p)
	if err != nil {
		return nil, err
	}
	if clean == "/" {
		return nil, nil
	}
	return strings.Split(clean[1:], "/"), nil
}

func refParent(p string) string {
	clean, err := refCleanPath(p)
	if err != nil || clean == "/" {
		return "/"
	}
	i := strings.LastIndexByte(clean, '/')
	if i == 0 {
		return "/"
	}
	return clean[:i]
}

func refBase(p string) string {
	clean, err := refCleanPath(p)
	if err != nil || clean == "/" {
		return ""
	}
	return clean[strings.LastIndexByte(clean, '/')+1:]
}

// FuzzCleanPath feeds arbitrary bytes to the path helpers and to their
// reference: same result, same error class and text, and the result is a
// fixed point. Run as a plain test it replays the seed corpus.
func FuzzCleanPath(f *testing.F) {
	for _, seed := range []string{
		"", "/", "//", "/.", "/..", "/a/../b", "/a", "/a/b/c", "/a/", "/a//", "/a/b///",
		"/./a/./b", "/a/./", "/...", "/..a", "/a..", "/.a/.b", "relative", "a/b", "./a",
		"/a\x00b", "/\x00", "/a/\x00/", "/données/été", "/数据/グリッド/", "/\xff\xfe/\xc3", "/ /  / ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p string) {
		got, err := CleanPath(p)
		want, refErr := refCleanPath(p)
		if got != want || (err == nil) != (refErr == nil) {
			t.Fatalf("CleanPath(%q) = %q, %v; reference %q, %v", p, got, err, want, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadPath) || err.Error() != refErr.Error() {
				t.Fatalf("CleanPath(%q) error %q, reference %q", p, err, refErr)
			}
		} else if again, err := CleanPath(got); err != nil || again != got {
			t.Fatalf("CleanPath(%q) = %q is not a fixed point: %q, %v", p, got, again, err)
		}
		parts, err := SplitPath(p)
		refParts, refErr := refSplitPath(p)
		if fmt.Sprintf("%q", parts) != fmt.Sprintf("%q", refParts) || (parts == nil) != (refParts == nil) || (err == nil) != (refErr == nil) {
			t.Fatalf("SplitPath(%q) = %q, %v; reference %q, %v", p, parts, err, refParts, refErr)
		}
		if got, want := Parent(p), refParent(p); got != want {
			t.Fatalf("Parent(%q) = %q, reference %q", p, got, want)
		}
		if got, want := Base(p), refBase(p); got != want {
			t.Fatalf("Base(%q) = %q, reference %q", p, got, want)
		}
	})
}
