// Package namespace implements the datagrid logical namespace: the
// location-independent view of collections, data objects, replicas,
// user-defined metadata and access controls that the paper calls "data
// virtualization".
//
// The namespace holds *names and records only* — logical paths, replica
// pointers into physical resources, attribute/value metadata and ACLs.
// Bytes live in vfs resources; the DGMS layer keeps the two consistent.
package namespace

import (
	"fmt"
	"strings"

	"datagridflow/internal/dgferr"
)

// Sentinel errors for namespace operations. Each wraps its dgferr class,
// so errors.Is works against both the package sentinel and the public
// taxonomy (datagridflow.ErrNotFound, ...).
var (
	// ErrNotFound reports a missing path.
	ErrNotFound = dgferr.Mark(dgferr.ErrNotFound, "namespace: not found")
	// ErrExists reports a name collision.
	ErrExists = dgferr.Mark(dgferr.ErrExists, "namespace: already exists")
	// ErrNotCollection reports an object used where a collection is needed.
	ErrNotCollection = dgferr.Mark(dgferr.ErrInvalid, "namespace: not a collection")
	// ErrNotObject reports a collection used where an object is needed.
	ErrNotObject = dgferr.Mark(dgferr.ErrInvalid, "namespace: not a data object")
	// ErrBadPath reports a malformed logical path.
	ErrBadPath = dgferr.Mark(dgferr.ErrInvalid, "namespace: bad path")
	// ErrDenied reports an access-control rejection.
	ErrDenied = dgferr.Mark(dgferr.ErrPermission, "namespace: permission denied")
)

// CleanPath normalizes a logical path: it must be absolute, components are
// separated by single slashes, "." and empty components collapse, and ".."
// is rejected (grid paths are not relative). A path that is already
// canonical — nearly every path the grid sees after its first hop — is
// returned as is, without allocating.
func CleanPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%w: %q must be absolute", ErrBadPath, p)
	}
	if isCanonical(p) {
		return p, nil
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

// isCanonical reports whether the absolute path p is what CleanPath
// would return for it: "/" itself, or slash-led components none of which
// is empty, "." or "..", with no trailing slash.
func isCanonical(p string) bool {
	if p == "/" {
		return true
	}
	for i := 0; i < len(p); {
		j := i + 1 // p[i] is the slash that opens a component
		for j < len(p) && p[j] != '/' {
			j++
		}
		switch p[i+1 : j] {
		case "", ".", "..":
			return false
		}
		i = j
	}
	return true
}

// SplitPath returns the cleaned components of an absolute path; "/" yields
// an empty slice.
func SplitPath(p string) ([]string, error) {
	clean, err := CleanPath(p)
	if err != nil {
		return nil, err
	}
	if clean == "/" {
		return nil, nil
	}
	return strings.Split(clean[1:], "/"), nil
}

// Parent returns the parent path of p ("/" is its own parent).
func Parent(p string) string {
	clean, err := CleanPath(p)
	if err != nil || clean == "/" {
		return "/"
	}
	i := strings.LastIndexByte(clean, '/')
	if i == 0 {
		return "/"
	}
	return clean[:i]
}

// Base returns the last component of p ("" for the root).
func Base(p string) string {
	clean, err := CleanPath(p)
	if err != nil || clean == "/" {
		return ""
	}
	return clean[strings.LastIndexByte(clean, '/')+1:]
}
