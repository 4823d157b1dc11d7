// Package vocab implements the character-level tokenizer LeJIT uses
// (paper §3/§4: "treats numeric values as plain text and uses a
// character-level tokenization scheme, generating each number digit by
// digit").
//
// A Tokenizer maps a fixed byte alphabet to contiguous token ids, reserving
// three special tokens: PAD (0), BOS (1), and EOS (2). Character tokens
// start at FirstChar. Encoding is total over the alphabet and Decode∘Encode
// is the identity on alphabet strings.
package vocab

import "fmt"

// Special token ids.
const (
	PAD = 0 // padding (training batches)
	BOS = 1 // beginning of sequence
	EOS = 2 // end of sequence
	// FirstChar is the id of the first alphabet character.
	FirstChar = 3
)

// Tokenizer is an immutable character-level tokenizer.
type Tokenizer struct {
	chars []byte
	toID  [256]int // -1 when not in alphabet
}

// New builds a tokenizer over the given alphabet. Bytes must be unique.
func New(alphabet string) (*Tokenizer, error) {
	if alphabet == "" {
		return nil, fmt.Errorf("vocab: empty alphabet")
	}
	t := &Tokenizer{chars: []byte(alphabet)}
	for i := range t.toID {
		t.toID[i] = -1
	}
	for i, c := range t.chars {
		if t.toID[c] != -1 {
			return nil, fmt.Errorf("vocab: duplicate alphabet byte %q", string(c))
		}
		t.toID[c] = FirstChar + i
	}
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(alphabet string) *Tokenizer {
	t, err := New(alphabet)
	if err != nil {
		panic(err)
	}
	return t
}

// Telemetry returns the tokenizer used for LeJIT's telemetry text format:
// digits, the intra-field separator ',', the field separator '|', the
// key/value separator ':', and newline as an additional record separator.
func Telemetry() *Tokenizer {
	return MustNew("0123456789,|:\n")
}

// Size is the vocabulary size including the three special tokens.
func (t *Tokenizer) Size() int { return FirstChar + len(t.chars) }

// ID returns the token id of byte c, or -1 if c is outside the alphabet.
func (t *Tokenizer) ID(c byte) int { return t.toID[c] }

// Char returns the byte of a character token id. It panics on special or
// out-of-range ids; use IsChar to guard.
func (t *Tokenizer) Char(id int) byte {
	if !t.IsChar(id) {
		panic(fmt.Sprintf("vocab: id %d is not a character token", id))
	}
	return t.chars[id-FirstChar]
}

// IsChar reports whether id denotes an alphabet character.
func (t *Tokenizer) IsChar(id int) bool {
	return id >= FirstChar && id < t.Size()
}

// Encode tokenizes s. It returns an error on bytes outside the alphabet.
func (t *Tokenizer) Encode(s string) ([]int, error) {
	out := make([]int, 0, len(s))
	for i := 0; i < len(s); i++ {
		id := t.toID[s[i]]
		if id == -1 {
			return nil, fmt.Errorf("vocab: byte %q at offset %d not in alphabet", string(s[i]), i)
		}
		out = append(out, id)
	}
	return out, nil
}

// EncodeSeq wraps Encode with BOS/EOS framing for training sequences.
func (t *Tokenizer) EncodeSeq(s string) ([]int, error) {
	body, err := t.Encode(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(body)+2)
	out = append(out, BOS)
	out = append(out, body...)
	out = append(out, EOS)
	return out, nil
}

// DigitIDs returns the token ids of '0'..'9' in order; -1 entries mean the
// digit is not in the alphabet.
func (t *Tokenizer) DigitIDs() [10]int {
	var out [10]int
	for d := 0; d < 10; d++ {
		out[d] = t.toID['0'+byte(d)]
	}
	return out
}
