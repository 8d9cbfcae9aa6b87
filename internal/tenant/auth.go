// Package tenant is the multi-tenant control plane of the datagridflow
// reproduction. The paper's DfMS is explicitly a shared facility — "a
// broker managing concurrent long-run processes on behalf of many
// users" (§3.1) — and the dataflowgrid requirements target 10k+
// parallel users with GridAuthX-style token exchange. This package
// supplies the two halves of that plane:
//
//   - Authority: mints and verifies HMAC-signed bearer tokens that bind
//     a wire connection (and every submit/route/delegate frame on it)
//     to an authenticated tenant identity (auth.go);
//   - Registry: tracks per-tenant quotas — flows in flight, store
//     bytes, delegation slots, submit rate — and the scheduling weight
//     the admission scheduler's deficit round-robin consumes
//     (registry.go).
//
// The wire layer threads both through the server (docs/TENANCY.md);
// matrixd wires them from -tenant-auth / -tenant-conf flags.
package tenant

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"hash"
	"strconv"
	"strings"
	"sync"
	"time"

	"datagridflow/internal/dgferr"
)

// Token format (docs/TENANCY.md):
//
//	dgt1.<b64url(tenant)>.<expiry-unix>.<b64url(HMAC-SHA256(secret, "dgt1.<b64url(tenant)>.<expiry-unix>"))>
//
// The tenant name is base64url-encoded so names containing '.' cannot
// forge extra fields; the signature covers the literal prefix string,
// so neither field can be swapped without re-signing. "dgt1" versions
// the scheme: a future algorithm change mints dgt2 tokens and verifies
// both during a rollover window.
const tokenPrefix = "dgt1"

// Typed sentinels for the two ways verification fails. Both belong to
// the auth class so they survive the wire (errors.Is against
// dgferr.ErrAuth holds on the client side).
var (
	// ErrToken: malformed or forged token (bad format, bad signature).
	ErrToken = dgferr.Mark(dgferr.ErrAuth, "tenant: invalid token")
	// ErrExpired: well-formed and correctly signed, but past its expiry
	// beyond the authority's clock-skew allowance.
	ErrExpired = dgferr.Mark(dgferr.ErrAuth, "tenant: token expired")
)

// DefaultSkew is the clock-skew allowance applied to token expiry when
// the authority is not configured otherwise: a token is accepted until
// expiry+skew, absorbing modest clock drift between minting and
// verifying hosts.
const DefaultSkew = 30 * time.Second

// Authority mints and verifies bearer tokens for tenant identities. It
// is keyed off a shared secret (every peer in a deployment loads the
// same key file, so any peer can verify any peer's tokens — federated
// hops re-verify rather than re-mint). All methods are safe for
// concurrent use after construction; SetClock/SetSkew are
// construction-time knobs only.
type Authority struct {
	secret  []byte
	skew    time.Duration
	now     func() time.Time
	signers sync.Pool // of *signer, keyed with secret
}

// signer is the reusable state of one signature: the keyed HMAC and the
// buffers it reads from and sums into, so that verifying a token
// allocates the tenant name it returns and nothing else.
type signer struct {
	mac  hash.Hash
	sum  [sha256.Size]byte
	body []byte // what is signed
	name []byte // the decoded tenant name
}

// sigLen is the length of a signature as a token carries it: unpadded
// base64.
const sigLen = (sha256.Size*8 + 5) / 6

// sign leaves the HMAC-SHA256 of body under the secret in s.sum and
// body itself in s.body.
func (s *signer) sign(body string) {
	s.body = append(s.body[:0], body...)
	s.mac.Reset()
	s.mac.Write(s.body)
	s.mac.Sum(s.sum[:0])
}

// NewAuthority builds an authority around a shared HMAC secret. The
// secret must be non-empty; the zero-length key would make every
// signature forgeable by construction.
func NewAuthority(secret []byte) (*Authority, error) {
	if len(secret) == 0 {
		return nil, fmt.Errorf("%w: empty authority secret", dgferr.ErrInvalid)
	}
	k := make([]byte, len(secret))
	copy(k, secret)
	a := &Authority{secret: k, skew: DefaultSkew, now: time.Now}
	a.signers.New = func() any { return &signer{mac: hmac.New(sha256.New, a.secret)} }
	return a, nil
}

// SetSkew overrides the clock-skew allowance (construction time only).
// d < 0 is clamped to zero.
func (a *Authority) SetSkew(d time.Duration) {
	if d < 0 {
		d = 0
	}
	a.skew = d
}

// SetClock overrides the time source (construction time only; tests).
func (a *Authority) SetClock(now func() time.Time) {
	if now != nil {
		a.now = now
	}
}

// Mint issues a token asserting the tenant identity until now+ttl.
// ttl <= 0 defaults to one hour.
func (a *Authority) Mint(tenant string, ttl time.Duration) (string, error) {
	if tenant == "" {
		return "", fmt.Errorf("%w: empty tenant name", dgferr.ErrInvalid)
	}
	if ttl <= 0 {
		ttl = time.Hour
	}
	exp := a.now().Add(ttl).Unix()
	body := tokenPrefix + "." +
		base64.RawURLEncoding.EncodeToString([]byte(tenant)) + "." +
		strconv.FormatInt(exp, 10)
	s := a.signers.Get().(*signer)
	s.sign(body)
	token := body + "." + base64.RawURLEncoding.EncodeToString(s.sum[:])
	a.signers.Put(s)
	return token, nil
}

// Verify checks a token's format, signature and expiry, returning the
// asserted tenant name. Signature is checked before expiry so a forged
// token never learns whether its expiry guess was plausible.
func (a *Authority) Verify(token string) (string, error) {
	// Four dot-separated parts, the first the scheme: the signature is
	// what follows the last dot, what it signs everything before it.
	last := strings.LastIndexByte(token, '.')
	if strings.Count(token, ".") != 3 || !strings.HasPrefix(token, tokenPrefix+".") {
		return "", ErrToken
	}
	nameAt := len(tokenPrefix) + 1
	expAt := nameAt + strings.IndexByte(token[nameAt:], '.') + 1

	s := a.signers.Get().(*signer)
	defer a.signers.Put(s)
	s.sign(token[:last])
	var want, got [sigLen]byte
	base64.RawURLEncoding.Encode(want[:], s.sum[:])
	if sig := token[last+1:]; len(sig) != sigLen || copy(got[:], sig) != sigLen || !hmac.Equal(want[:], got[:]) {
		return "", ErrToken
	}
	b64 := s.body[nameAt : expAt-1]
	if n := base64.RawURLEncoding.DecodedLen(len(b64)); cap(s.name) < n {
		s.name = make([]byte, n)
	}
	n, err := base64.RawURLEncoding.Decode(s.name[:cap(s.name)], b64)
	if err != nil || n == 0 {
		return "", ErrToken
	}
	exp, err := strconv.ParseInt(token[expAt:last], 10, 64)
	if err != nil {
		return "", ErrToken
	}
	if a.now().After(time.Unix(exp, 0).Add(a.skew)) {
		return "", ErrExpired
	}
	return string(s.name[:n]), nil
}
