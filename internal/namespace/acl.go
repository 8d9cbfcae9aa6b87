package namespace

import "fmt"

// Perm is an access level on a namespace entry. Levels are ordered: a
// higher level implies all lower ones (Own ⊃ Write ⊃ Read).
type Perm int

// Access levels.
const (
	// PermNone grants nothing (used to revoke inherited access).
	PermNone Perm = iota
	// PermRead allows reading data and listing collections.
	PermRead
	// PermWrite allows creating, replicating and modifying entries.
	PermWrite
	// PermOwn allows everything including permission changes.
	PermOwn
)

// String returns the permission name.
func (p Perm) String() string {
	switch p {
	case PermNone:
		return "none"
	case PermRead:
		return "read"
	case PermWrite:
		return "write"
	case PermOwn:
		return "own"
	default:
		return fmt.Sprintf("perm(%d)", int(p))
	}
}

// Allows reports whether holding p satisfies a requirement of q.
func (p Perm) Allows(q Perm) bool { return p >= q }

// SetPermission grants user the given level on the entry at path. Grants
// are inherited by descendants unless a descendant carries its own entry
// for the same user (which may be PermNone, revoking access below).
func (ns *Namespace) SetPermission(path, user string, p Perm) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n, err := ns.resolve(path)
	if err != nil {
		return err
	}
	x := n.extension()
	if x.acl == nil {
		x.acl = make(map[string]Perm)
	}
	x.acl[user] = p
	return nil
}

// Wildcard is the ACL user entry matching every user; granting it makes
// an entry (and, via inheritance, its subtree) public at that level.
const Wildcard = "*"

// Permission returns the effective access level of user on path: the
// deepest explicit grant on the path from the root, or the entry's
// ownership. Owners of an entry always hold PermOwn on it. A grant to
// the Wildcard user applies to everyone, but a same-depth grant naming
// the user specifically takes precedence.
func (ns *Namespace) Permission(path, user string) (Perm, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return PermNone, err
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	eff := PermNone
	_, _, n, err := ns.find(clean, path, func(a *node) {
		acl := a.grants()
		if p, ok := acl[user]; ok {
			eff = p // deepest explicit grant wins
		} else if p, ok := acl[Wildcard]; ok {
			eff = p
		}
	})
	if err != nil {
		return PermNone, err
	}
	if n.who.owner == user {
		return PermOwn, nil
	}
	return eff, nil
}

// Check returns nil when user holds at least `need` on path, and a
// ErrDenied-wrapped error otherwise.
func (ns *Namespace) Check(path, user string, need Perm) error {
	p, err := ns.Permission(path, user)
	if err != nil {
		return err
	}
	if !p.Allows(need) {
		return fmt.Errorf("%w: %s needs %s on %s (has %s)", ErrDenied, user, need, path, p)
	}
	return nil
}
