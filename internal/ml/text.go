package ml

import (
	"sort"
	"strings"
)

// CountVectorizer converts a corpus of documents into token-count features
// over a bounded vocabulary (the sklearn CountVectorizer of Listing 1 in
// the paper). Tokens are lower-cased, split on non-letter/digit runes.
type CountVectorizer struct {
	// MaxFeatures bounds the vocabulary to the most frequent tokens.
	// Default 256.
	MaxFeatures int
	// Vocabulary maps token → column index after Fit, deterministic
	// (tokens sorted by frequency desc, then lexicographically).
	Vocabulary map[string]int
	// Tokens lists the vocabulary in column order.
	Tokens []string
}

func tokenize(doc string) []string {
	return strings.FieldsFunc(strings.ToLower(doc), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
}

// Fit learns the vocabulary from docs.
func (v *CountVectorizer) Fit(docs []string) {
	if v.MaxFeatures == 0 {
		v.MaxFeatures = 256
	}
	freq := make(map[string]int)
	for _, d := range docs {
		for _, tok := range tokenize(d) {
			freq[tok]++
		}
	}
	tokens := make([]string, 0, len(freq))
	for tok := range freq {
		tokens = append(tokens, tok)
	}
	sort.Slice(tokens, func(a, b int) bool {
		if freq[tokens[a]] != freq[tokens[b]] {
			return freq[tokens[a]] > freq[tokens[b]]
		}
		return tokens[a] < tokens[b]
	})
	if len(tokens) > v.MaxFeatures {
		tokens = tokens[:v.MaxFeatures]
	}
	sort.Strings(tokens)
	v.Tokens = tokens
	v.Vocabulary = make(map[string]int, len(tokens))
	for i, tok := range tokens {
		v.Vocabulary[tok] = i
	}
}

// Transform maps docs to their token counts, column-major: the count of
// token j in document i is at j*len(docs)+i.
func (v *CountVectorizer) Transform(docs []string) []float64 {
	n := len(docs)
	out := make([]float64, len(v.Tokens)*n)
	for i, d := range docs {
		for _, tok := range tokenize(d) {
			if j, ok := v.Vocabulary[tok]; ok {
				out[j*n+i]++
			}
		}
	}
	return out
}

// FitTransform fits the vocabulary and returns the counts of docs.
func (v *CountVectorizer) FitTransform(docs []string) []float64 {
	v.Fit(docs)
	return v.Transform(docs)
}
