package trace

// AppendVarint exposes the row codec's varint encoder to the external
// tests that damage single fields of a payload.
var AppendVarint = appendVarint
