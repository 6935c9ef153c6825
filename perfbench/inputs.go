package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"arlo/internal/tokenizer"
	"arlo/internal/trace"
)

// input is one generated request. The program receives only text (and,
// for generation, the output budget and tenant); length is what the
// tokenizer must report for it.
type input struct {
	text   string
	length int
	maxNew int
	tenant string
}

// wordPool holds common words the built-in vocabulary encodes as exactly
// one token each; newTextBuilder verifies that before use.
var wordPool = []string{
	"the", "a", "of", "to", "and", "in", "is", "it", "for", "on", "was",
	"with", "he", "as", "at", "by", "this", "had", "not", "are", "but",
	"from", "or", "have", "an", "they", "which", "one", "you", "were",
	"time", "data", "model",
}

// minLength is the shortest request a non-empty text can carry:
// [CLS], one word, [SEP].
const minLength = 3

type textBuilder struct {
	tok   *tokenizer.Tokenizer
	words []string
}

func newTextBuilder() (*textBuilder, error) {
	tok := tokenizer.New()
	for _, w := range wordPool {
		if n := tok.SequenceLength(w); n != 3 {
			return nil, fmt.Errorf("inputs: word %q encodes to %d ids, want 3", w, n)
		}
	}
	return &textBuilder{tok: tok, words: wordPool}, nil
}

// build returns a text whose tokenizer sequence length is exactly length
// (clamped up to minLength), checked against the tokenizer.
func (b *textBuilder) build(rng *rand.Rand, length int) (input, error) {
	if length < minLength {
		length = minLength
	}
	var sb strings.Builder
	for i := 0; i < length-2; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(b.words[rng.Intn(len(b.words))])
	}
	text := sb.String()
	if got := b.tok.SequenceLength(text); got != length {
		return input{}, fmt.Errorf("inputs: built text encodes to %d ids, want %d", got, length)
	}
	return input{text: text, length: length}, nil
}

// schedule is an open-loop phase's inputs with their due offsets.
type schedule struct {
	due []time.Duration
	ins []input
}

// fromTrace turns a generated trace into texts. tenants, when non-empty,
// are assigned by weight from the same seeded stream.
func (b *textBuilder) fromTrace(tr *trace.Trace, seed int64, tenants []string, weights []float64) (schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	s := schedule{due: make([]time.Duration, len(tr.Requests)), ins: make([]input, len(tr.Requests))}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, r := range tr.Requests {
		in, err := b.build(rng, r.Length)
		if err != nil {
			return schedule{}, err
		}
		in.maxNew = r.OutTokens
		if len(tenants) > 0 {
			x := rng.Float64() * total
			k := 0
			for k < len(weights)-1 && x >= weights[k] {
				x -= weights[k]
				k++
			}
			in.tenant = tenants[k]
		}
		s.due[i] = r.At
		s.ins[i] = in
	}
	return s, nil
}
