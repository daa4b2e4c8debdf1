package cache

// Fingerprint exposes the row fingerprint to the external collision tests.
var Fingerprint = fingerprint
