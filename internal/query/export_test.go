package query

// CanonicalKeyOld exposes the test-only reference implementation to the
// external test package, which may import the packages that import this
// one (reformulate, lubm).
var CanonicalKeyOld = canonicalKeyOld
