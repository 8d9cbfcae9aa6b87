package tenant

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
)

func newTestAuthority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority([]byte("test-secret"))
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	return a
}

func TestMintVerifyRoundTrip(t *testing.T) {
	a := newTestAuthority(t)
	for _, name := range []string{"alice", "a.b.c", "vo/ligo", "anon", "üñîçødé"} {
		tok, err := a.Mint(name, time.Minute)
		if err != nil {
			t.Fatalf("Mint(%q): %v", name, err)
		}
		got, err := a.Verify(tok)
		if err != nil {
			t.Fatalf("Verify(%q token): %v", name, err)
		}
		if got != name {
			t.Fatalf("Verify = %q, want %q", got, name)
		}
	}
}

func TestAuthorityRejectsEmpty(t *testing.T) {
	if _, err := NewAuthority(nil); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("empty secret: got %v, want ErrInvalid", err)
	}
	a := newTestAuthority(t)
	if _, err := a.Mint("", time.Minute); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("empty tenant: got %v, want ErrInvalid", err)
	}
}

func TestVerifyRejectsForgery(t *testing.T) {
	a := newTestAuthority(t)
	b, err := NewAuthority([]byte("other-secret"))
	if err != nil {
		t.Fatal(err)
	}
	tok, err := a.Mint("alice", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"wrong key":       tok, // verified against b below
		"garbage":         "not-a-token",
		"empty":           "",
		"bad prefix":      "dgt9" + tok[4:],
		"truncated":       tok[:len(tok)-5],
		"extra field":     tok + ".x",
		"tampered tenant": swapField(tok, 1, "Ym9i"), // b64("bob")
		"tampered expiry": swapField(tok, 2, "9999999999"),
		"tampered sig":    swapField(tok, 3, strings.Repeat("A", 43)),
		"bad b64 tenant":  swapField(tok, 1, "!!!"),
	}
	for name, bad := range cases {
		auth := a
		if name == "wrong key" {
			auth = b
		}
		got, err := auth.Verify(bad)
		if !errors.Is(err, ErrToken) || !errors.Is(err, dgferr.ErrAuth) {
			t.Errorf("%s: Verify = (%q, %v), want ErrToken/ErrAuth", name, got, err)
		}
	}
}

// swapField replaces dot-separated field i of a token.
func swapField(tok string, i int, v string) string {
	parts := strings.Split(tok, ".")
	parts[i] = v
	return strings.Join(parts, ".")
}

func TestTokenExpiryAndClockSkew(t *testing.T) {
	a := newTestAuthority(t)
	base := time.Unix(1_700_000_000, 0)
	now := base
	a.SetClock(func() time.Time { return now })

	tok, err := a.Mint("alice", time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh: valid.
	if _, err := a.Verify(tok); err != nil {
		t.Fatalf("fresh token: %v", err)
	}
	// Just past expiry but inside the skew window: still valid — a
	// verifier whose clock runs ahead must not reject live tokens.
	now = base.Add(time.Minute + 29*time.Second)
	if _, err := a.Verify(tok); err != nil {
		t.Fatalf("inside skew window: %v", err)
	}
	// Past expiry + skew: expired, typed.
	now = base.Add(time.Minute + 31*time.Second)
	if _, err := a.Verify(tok); !errors.Is(err, ErrExpired) {
		t.Fatalf("past skew: got %v, want ErrExpired", err)
	}
	if _, err := a.Verify(tok); !errors.Is(err, dgferr.ErrAuth) {
		t.Fatal("expired token must carry the auth class")
	}
	// A verifier whose clock runs *behind* the minter accepts tokens
	// that look future-dated — skew is symmetric by construction since
	// only the expiry instant is checked.
	now = base.Add(-10 * time.Minute)
	if _, err := a.Verify(tok); err != nil {
		t.Fatalf("verifier behind minter: %v", err)
	}
}

func TestMintDefaultTTL(t *testing.T) {
	a := newTestAuthority(t)
	base := time.Unix(1_700_000_000, 0)
	now := base
	a.SetClock(func() time.Time { return now })
	tok, err := a.Mint("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	now = base.Add(59 * time.Minute)
	if _, err := a.Verify(tok); err != nil {
		t.Fatalf("default TTL should be an hour: %v", err)
	}
}

func TestVerifyConcurrent(t *testing.T) {
	// Verification is lock-free over immutable state; exercised under
	// -race to prove it.
	a := newTestAuthority(t)
	tok, err := a.Mint("alice", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 200; j++ {
				if _, err := a.Verify(tok); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyAllocs: verifying a token allocates the tenant name it
// returns; the split, the signature and the comparison work in pooled
// and stack buffers.
func TestVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	a := newTestAuthority(t)
	tok, err := a.Mint("tenant-3", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if name, err := a.Verify(tok); err != nil || name != "tenant-3" {
			t.Fatalf("Verify = %q, %v", name, err)
		}
	}); got > 3 {
		t.Errorf("Verify allocates %.0f times, budget 3", got)
	}
	forged := tok[:len(tok)-1] + "A"
	if tok == forged {
		forged = tok[:len(tok)-1] + "B"
	}
	if got := testing.AllocsPerRun(200, func() { _, _ = a.Verify(forged) }); got > 0 {
		t.Errorf("refusing a forged token allocates %.0f times, want 0", got)
	}
}

// verifyRef is Verify as it was first written — Split, re-join, compare
// the base64 text — kept as the reference the allocation-free one is
// held against.
func verifyRef(a *Authority, token string) (string, error) {
	parts := strings.Split(token, ".")
	if len(parts) != 4 || parts[0] != tokenPrefix {
		return "", ErrToken
	}
	body := parts[0] + "." + parts[1] + "." + parts[2]
	m := hmac.New(sha256.New, a.secret)
	m.Write([]byte(body))
	if !hmac.Equal([]byte(base64.RawURLEncoding.EncodeToString(m.Sum(nil))), []byte(parts[3])) {
		return "", ErrToken
	}
	name, err := base64.RawURLEncoding.DecodeString(parts[1])
	if err != nil || len(name) == 0 {
		return "", ErrToken
	}
	exp, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return "", ErrToken
	}
	if a.now().After(time.Unix(exp, 0).Add(Skew)) {
		return "", ErrExpired
	}
	return string(name), nil
}

// TestVerifyMatchesReference: on valid tokens, on tokens re-signed
// around odd fields and on every one-byte edit of a valid token, Verify
// returns what the reference returns.
func TestVerifyMatchesReference(t *testing.T) {
	a := newTestAuthority(t)
	now := time.Unix(1_700_000_000, 0)
	a.SetClock(func() time.Time { return now })
	resign := func(name, exp string) string {
		body := tokenPrefix + "." + name + "." + exp
		m := hmac.New(sha256.New, a.secret)
		m.Write([]byte(body))
		return body + "." + base64.RawURLEncoding.EncodeToString(m.Sum(nil))
	}
	tok, err := a.Mint("alice", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tokens := []string{
		tok, "", ".", "...", "dgt1...", "dgt1", tok + "\n", tok[:len(tok)-1] + "\n", "\n" + tok, tok + ".", "." + tok,
		resign("", "1"), resign("YWxpY2U", ""), resign("YWxpY2U", "+1800000000"), resign("YWxpY2U", "1800000000 "),
		resign("YWxp\nY2U", "1800000000"), resign("YWxpY2U=", "1800000000"), resign("YWxpY2V", "1800000000"),
		resign("YWxpY2U", "1699999000"), resign("YWxpY2U", "1699999970"), resign("YWxpY2U", "99999999999999999999"),
		resign(strings.Repeat("YWxp", 300), "1800000000"),
	}
	for i := 0; i < len(tok); i++ {
		for _, c := range []byte{'.', 'A', '\n', '=', 0xff} {
			tokens = append(tokens, tok[:i]+string(c)+tok[i+1:], tok[:i]+string(c)+tok[i:], tok[:i]+tok[i+1:])
		}
	}
	accepted := 0
	for _, token := range tokens {
		got, gotErr := a.Verify(token)
		want, wantErr := verifyRef(a, token)
		if got != want || gotErr != wantErr {
			t.Errorf("Verify(%q) = (%q, %v), reference (%q, %v)", token, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			accepted++
		}
	}
	if accepted < 5 {
		t.Errorf("only %d of %d tokens verify: the table does not reach the accepting paths", accepted, len(tokens))
	}
}

// FuzzVerify drives the token parser, the last parser of peer bytes
// without a fuzzer, from three sides: an arbitrary string never panics
// Verify; a token minted for a fuzzed tenant verifies to it; and every
// one-byte change to that token is refused.
func FuzzVerify(f *testing.F) {
	f.Add("alice", "dgt1.YWxpY2U.1790000000.c2ln", 0, byte('x'))
	f.Add("a.b.c", "dgt1...", 5, byte('.'))
	f.Add("üñîçødé", "", 40, byte(0))
	f.Add("vo/ligo", "dgt1.dm8vbGlnbw.-1.", 1000, byte('A'))
	a, err := NewAuthority([]byte("fuzz-secret"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, name, raw string, at int, b byte) {
		_, _ = a.Verify(raw)
		if name == "" {
			return
		}
		tok, err := a.Mint(name, time.Hour)
		if err != nil {
			t.Fatalf("Mint(%q): %v", name, err)
		}
		if got, err := a.Verify(tok); err != nil || got != name {
			t.Fatalf("Verify(minted for %q) = %q, %v", name, got, err)
		}
		i := at % len(tok)
		if i < 0 {
			i += len(tok)
		}
		if tok[i] == b {
			return
		}
		bad := tok[:i] + string([]byte{b}) + tok[i+1:]
		if got, err := a.Verify(bad); err == nil {
			t.Fatalf("token changed at byte %d to %q verified, as %q", i, b, got)
		}
	})
}
