package vocab

import (
	"strings"
	"testing"
	"testing/quick"
)

// Decode renders token ids back to text. Special tokens decode to nothing.
func (t *Tokenizer) Decode(ids []int) string {
	var b strings.Builder
	for _, id := range ids {
		if t.IsChar(id) {
			b.WriteByte(t.chars[id-FirstChar])
		}
	}
	return b.String()
}

// Alphabet returns a copy of the alphabet bytes in id order.
func (t *Tokenizer) Alphabet() []byte { return append([]byte(nil), t.chars...) }

func TestRoundTrip(t *testing.T) {
	tok := Telemetry()
	cases := []string{"", "0", "123,45|6:7", "100,8|20,15,25,39,1\n"}
	for _, s := range cases {
		ids, err := tok.Encode(s)
		if err != nil {
			t.Fatalf("Encode(%q): %v", s, err)
		}
		if got := tok.Decode(ids); got != s {
			t.Errorf("Decode(Encode(%q)) = %q", s, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	tok := Telemetry()
	alpha := tok.Alphabet()
	f := func(idxs []uint8) bool {
		b := make([]byte, len(idxs))
		for i, x := range idxs {
			b[i] = alpha[int(x)%len(alpha)]
		}
		s := string(b)
		ids, err := tok.Encode(s)
		if err != nil {
			return false
		}
		return tok.Decode(ids) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeSeqFraming(t *testing.T) {
	tok := Telemetry()
	ids, err := tok.EncodeSeq("12")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 || ids[0] != BOS || ids[len(ids)-1] != EOS {
		t.Errorf("EncodeSeq framing: %v", ids)
	}
	if got := tok.Decode(ids); got != "12" {
		t.Errorf("Decode skips specials: %q", got)
	}
}

func TestEncodeUnknownByte(t *testing.T) {
	tok := Telemetry()
	if _, err := tok.Encode("12x"); err == nil {
		t.Error("byte outside alphabet should error")
	}
}

func TestSpecialIDsDisjoint(t *testing.T) {
	tok := Telemetry()
	if tok.IsChar(PAD) || tok.IsChar(BOS) || tok.IsChar(EOS) {
		t.Error("special ids must not be character tokens")
	}
	if tok.Size() != FirstChar+14 {
		t.Errorf("Size = %d, want %d", tok.Size(), FirstChar+14)
	}
	for i := FirstChar; i < tok.Size(); i++ {
		if !tok.IsChar(i) {
			t.Errorf("id %d should be a char", i)
		}
		if got := tok.ID(tok.Char(i)); got != i {
			t.Errorf("ID(Char(%d)) = %d", i, got)
		}
	}
}

func TestDigitIDs(t *testing.T) {
	tok := Telemetry()
	ds := tok.DigitIDs()
	for d := 0; d < 10; d++ {
		if ds[d] == -1 {
			t.Fatalf("digit %d missing", d)
		}
		if tok.Char(ds[d]) != byte('0'+d) {
			t.Errorf("digit %d maps to %q", d, string(tok.Char(ds[d])))
		}
	}
	// A tokenizer without digits reports -1.
	nodigits := MustNew("abc")
	ds = nodigits.DigitIDs()
	for d := 0; d < 10; d++ {
		if ds[d] != -1 {
			t.Errorf("digit %d should be -1 in letters-only alphabet", d)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("empty alphabet accepted")
	}
	if _, err := New("aa"); err == nil {
		t.Error("duplicate byte accepted")
	}
}

func TestCharPanicsOnSpecial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Char(BOS) should panic")
		}
	}()
	Telemetry().Char(BOS)
}
