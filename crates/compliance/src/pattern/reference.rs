//! The recursive matcher the compiled [`Regex`](super::Regex) replaced,
//! kept verbatim as its test-only specification: one `&mut dyn FnMut`
//! continuation per char, a match attempt at every start position, no
//! prefilters. The tests below hold the compiled matcher equal to it on
//! random patterns over the whole supported grammar and on every cell
//! of the planted-PII fixture.

use super::{at_word_boundary, parse_ast, Ast, Elem, Piece};

/// A pattern matched by the reference backtracker.
struct Reference {
    ast: Ast,
}

impl Reference {
    /// Parses `pattern` with the shared parser.
    fn parse(pattern: &str) -> Reference {
        Reference {
            ast: parse_ast(pattern).expect("reference patterns parse"),
        }
    }

    /// True when the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        let chars: Vec<char> = text.chars().collect();
        (0..=chars.len()).any(|start| self.match_end(&chars, start).is_some())
    }

    /// All non-overlapping matches in `text`, leftmost-first, as
    /// **char-index** `(start, end)` spans. Zero-width matches are
    /// skipped (a rule that matches nothing scrubs nothing).
    pub fn find_all(&self, text: &str) -> Vec<(usize, usize)> {
        let chars: Vec<char> = text.chars().collect();
        self.find_all_chars(&chars)
    }

    /// [`Reference::find_all`] over an already-decoded char buffer.
    pub fn find_all_chars(&self, chars: &[char]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut start = 0;
        while start < chars.len() {
            match self.match_end(chars, start) {
                Some(end) if end > start => {
                    spans.push((start, end));
                    start = end;
                }
                _ => start += 1,
            }
        }
        spans
    }

    /// End (exclusive, char index) of the leftmost-first match starting
    /// exactly at `start`, if any.
    fn match_end(&self, chars: &[char], start: usize) -> Option<usize> {
        let mut end = None;
        match_ast(&self.ast, chars, start, &mut |e| {
            end = Some(e);
            true
        });
        end
    }
}

/// Matches the alternation at `pos`, invoking `k` with the end position
/// of each candidate parse (preferred order) until `k` returns true.
fn match_ast(ast: &Ast, chars: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    for seq in &ast.alts {
        if match_seq(seq, chars, pos, k) {
            return true;
        }
    }
    false
}

fn match_seq(seq: &[Piece], chars: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    match seq.split_first() {
        None => k(pos),
        Some((piece, rest)) => match_piece(piece, 0, chars, pos, &mut |end| {
            match_seq(rest, chars, end, k)
        }),
    }
}

/// Greedy quantified match: consume as many repetitions as possible
/// first, backing off one at a time on failure.
fn match_piece(
    piece: &Piece,
    count: u32,
    chars: &[char],
    pos: usize,
    k: &mut dyn FnMut(usize) -> bool,
) -> bool {
    let can_repeat = piece.max.is_none_or(|m| count < m);
    if can_repeat {
        let matched = match_elem(&piece.elem, chars, pos, &mut |end| {
            if end == pos {
                // Zero-width repetition makes no progress; accept the
                // minimum and hand over rather than recursing forever.
                count + 1 >= piece.min && k(end)
            } else {
                match_piece(piece, count + 1, chars, end, k)
            }
        });
        if matched {
            return true;
        }
    }
    count >= piece.min && k(pos)
}

fn match_elem(elem: &Elem, chars: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    match elem {
        Elem::Char(c) => pos < chars.len() && chars[pos] == *c && k(pos + 1),
        Elem::Any => pos < chars.len() && k(pos + 1),
        Elem::Perl(p, neg) => pos < chars.len() && (p.matches(chars[pos]) != *neg) && k(pos + 1),
        Elem::Class(cc) => pos < chars.len() && cc.matches(chars[pos]) && k(pos + 1),
        Elem::Boundary(want) => (at_word_boundary(chars, pos) == *want) && k(pos),
        Elem::Start => pos == 0 && k(pos),
        Elem::End => pos == chars.len() && k(pos),
        Elem::Group(ast) => match_ast(ast, chars, pos, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Regex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Literal atoms: plain chars, one non-ASCII char, `]` and `-`
    /// outside a class, and escaped metacharacters.
    const LITERALS: &[&str] = &[
        "a", "b", "1", "-", "_", " ", "@", "]", "é", r"\.", r"\(", r"\)", r"\-", r"\t",
    ];
    const PERL: &[&str] = &[r"\d", r"\D", r"\w", r"\W", r"\s", r"\S"];
    const ASSERTIONS: &[&str] = &[r"\b", r"\B", "^", "$"];
    /// `[…]` members: singles, ranges, embedded perl classes, escapes.
    const CLASS_ITEMS: &[&str] = &[
        "a", "b", "1", "é", "_", " ", ".", "(", "a-c", "0-2", "A-Z", r"\d", r"\D", r"\w", r"\W",
        r"\s", r"\S", r"\-", r"\]",
    ];
    const QUANTIFIERS: &[&str] = &[
        "*", "+", "?", "{0}", "{1}", "{2}", "{0,}", "{1,}", "{2,}", "{0,1}", "{0,2}", "{1,3}",
        "{2,3}",
    ];
    /// Text chars: what the patterns name, a char no pattern names, and
    /// a non-ASCII space (`\s` accepts it, `\w` does not).
    const ALPHABET: &[char] = &[
        'a', 'b', 'c', '1', '2', '-', '_', ' ', '.', '(', ')', ']', '@', 'é', 'Z', '\u{a0}',
    ];

    fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
        from[rng.gen_range(0..from.len())]
    }

    fn quantifier(rng: &mut StdRng) -> &'static str {
        if rng.gen_bool(0.5) {
            ""
        } else {
            pick(rng, QUANTIFIERS)
        }
    }

    fn class(rng: &mut StdRng) -> String {
        let mut out = String::from("[");
        if rng.gen_bool(0.3) {
            out.push('^');
        }
        if rng.gen_bool(0.15) {
            out.push(']'); // a leading `]` is a member
        }
        for _ in 0..rng.gen_range(1..=3usize) {
            out.push_str(pick(rng, CLASS_ITEMS));
        }
        if rng.gen_bool(0.15) {
            out.push('-'); // a trailing `-` is a member
        }
        out.push(']');
        out
    }

    /// One element, mostly quantified; groups nest at most two deep.
    fn piece(rng: &mut StdRng, depth: usize) -> String {
        match rng.gen_range(0..10u32) {
            0..=2 => format!("{}{}", pick(rng, LITERALS), quantifier(rng)),
            3 => format!(".{}", quantifier(rng)),
            4 => format!("{}{}", pick(rng, PERL), quantifier(rng)),
            5 | 6 => format!("{}{}", class(rng), quantifier(rng)),
            7 if depth < 2 => format!("({}){}", alternation(rng, depth + 1), quantifier(rng)),
            // A nullable group (empty last alternative) under a repeat.
            8 if depth < 2 => format!(
                "({}|){}",
                alternation(rng, depth + 1),
                pick(rng, &["*", "+", "{2}", "{0,3}"])
            ),
            9 => pick(rng, ASSERTIONS).to_owned(),
            _ => pick(rng, LITERALS).to_owned(),
        }
    }

    /// Up to three alternatives of up to `4 - depth` elements each.
    fn alternation(rng: &mut StdRng, depth: usize) -> String {
        let n_alts = if rng.gen_bool(0.7) {
            1
        } else {
            rng.gen_range(2..=3usize)
        };
        let alts: Vec<String> = (0..n_alts)
            .map(|_| {
                (0..rng.gen_range(0..=4 - depth))
                    .map(|_| piece(rng, depth))
                    .collect()
            })
            .collect();
        alts.join("|")
    }

    fn text(rng: &mut StdRng) -> String {
        (0..rng.gen_range(0..=8usize))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    /// Texts stay at most 8 chars and nesting at most 2: the reference
    /// backtracks exponentially on nested quantified groups.
    #[test]
    fn compiled_matcher_equals_the_reference_on_random_patterns() {
        let mut rng = StdRng::seed_from_u64(0x7c105e);
        let (mut matched, mut missed) = (0usize, 0usize);
        for _ in 0..10_000 {
            let source = alternation(&mut rng, 0);
            let regex = Regex::parse(&source).unwrap_or_else(|e| panic!("{source:?}: {e}"));
            let reference = Reference::parse(&source);
            for _ in 0..20 {
                let text = text(&mut rng);
                let spans = reference.find_all(&text);
                assert_eq!(regex.find_all(&text), spans, "{source:?} on {text:?}");
                let hit = reference.is_match(&text);
                assert_eq!(regex.is_match(&text), hit, "{source:?} on {text:?}");
                if spans.is_empty() {
                    missed += 1;
                } else {
                    matched += 1;
                }
            }
        }
        // Neither side of the comparison is vacuous.
        assert!(matched > 20_000 && missed > 20_000, "{matched} / {missed}");
    }

    #[test]
    fn builtin_rules_equal_the_reference_on_the_pii_fixture() {
        let table = tclose_datasets::pii_patients(1, 2_000);
        let rules: Vec<(Regex, Reference)> = crate::rules::builtin_ids()
            .into_iter()
            .map(|id| {
                let source = crate::rules::builtin_rule(id)
                    .unwrap()
                    .pattern
                    .source()
                    .to_owned();
                (Regex::parse(&source).unwrap(), Reference::parse(&source))
            })
            .collect();
        let mut spans_seen = 0;
        for (c, attr) in table.schema().attributes().iter().enumerate() {
            for row in 0..table.n_rows() {
                let cell = match table.column(c).unwrap() {
                    tclose_microdata::Column::F64(v) => v[row].to_string(),
                    tclose_microdata::Column::Cat(codes) => {
                        attr.dictionary.label(codes[row]).unwrap().to_owned()
                    }
                };
                let chars: Vec<char> = cell.chars().collect();
                for (regex, reference) in &rules {
                    let spans = reference.find_all_chars(&chars);
                    assert_eq!(regex.find_all_chars(&chars), spans, "{cell:?}");
                    assert_eq!(regex.is_match_chars(&chars), reference.is_match(&cell));
                    spans_seen += spans.len();
                }
            }
        }
        assert!(spans_seen >= 5 * 2_000, "only {spans_seen} spans");
    }
}
