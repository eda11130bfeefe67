package vliw

// AppendWords exposes the word image alone, without the GuestPC side
// table, so the block-codec fuzz target can seed truncated encodings.
var AppendWords = appendWords
