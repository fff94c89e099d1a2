//! A small backtracking regex engine — exactly the subset the detector
//! rules need, dependency-free in the same spirit as `tclose_ser::Json`.
//!
//! Supported syntax:
//!
//! * literals, `.` (any char), escaped metacharacters (`\.` `\(` …)
//! * perl classes `\d \D \w \W \s \S` and the word boundary `\b` / `\B`
//! * character classes `[a-z0-9_]` with ranges, negation (`[^…]`), and
//!   embedded perl classes
//! * groups `(…)` (non-capturing), alternation `|`
//! * greedy quantifiers `*` `+` `?` `{m}` `{m,}` `{m,n}`
//! * anchors `^` and `$`
//!
//! Matching is leftmost-first with greedy quantifiers (the usual
//! backtracking semantics). Spans are **char indices**, not byte offsets
//! — the scrub engine rebuilds cells from `Vec<char>`, so char spans
//! compose without UTF-8 bookkeeping.
//!
//! [`Regex::parse`] does all per-pattern work once:
//!
//! * every single-char element — a literal, `.`, a perl class or a
//!   `[…]` class — gets a 128-bit ASCII membership bitmap; a non-ASCII
//!   char still goes through the element's own test;
//! * a quantified single-char element takes its greedy run in one loop,
//!   then offers the rest of the pattern each run length, longest first,
//!   down to its minimum — the order a one-char-per-step backtracker
//!   tries them in;
//! * three prefilters come from the syntax tree: the chars a non-empty
//!   match can start with, whether every alternative opens with `\b`,
//!   and the literal chars every match must contain. `find_all_chars`
//!   skips start positions that fail them; `is_match_chars` uses them
//!   only when the pattern cannot match the empty string.
//!
//! Matching is still backtracking: patterns are authored in the rule
//! registry or user config and cells are short, but nothing guards
//! against a pathological pattern (a linear-time matcher is ROADMAP
//! item 5). The one-continuation-per-char matcher this engine grew out
//! of is kept, test-only, in `pattern/reference.rs`; a seeded
//! differential test holds the two equal.

use std::fmt;

/// A compile error with the offset (in chars) where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// Char offset into the pattern source.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern error at char {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for PatternError {}

/// One perl shorthand class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PerlClass {
    Digit,
    Word,
    Space,
}

impl PerlClass {
    fn matches(self, c: char) -> bool {
        match self {
            PerlClass::Digit => c.is_ascii_digit(),
            PerlClass::Word => c.is_ascii_alphanumeric() || c == '_',
            PerlClass::Space => c.is_whitespace(),
        }
    }

    /// The ASCII members, as a bitmap (`char::is_whitespace` accepts
    /// `\t`..=`\r` and the space below 128).
    fn ascii(self) -> u128 {
        let digits = ascii_range('0', '9');
        match self {
            PerlClass::Digit => digits,
            PerlClass::Word => {
                digits | ascii_range('A', 'Z') | ascii_range('a', 'z') | ascii_range('_', '_')
            }
            PerlClass::Space => ascii_range('\t', '\r') | ascii_range(' ', ' '),
        }
    }
}

/// Bits `lo..=hi` of an ASCII bitmap; chars above 127 have no bit.
fn ascii_range(lo: char, hi: char) -> u128 {
    let (lo, hi) = (u32::from(lo), u32::from(hi).min(127));
    if lo > hi {
        return 0;
    }
    (u128::MAX >> (127 - hi)) & (u128::MAX << lo)
}

/// `bits`, complemented when `negated`.
fn negate_if(bits: u128, negated: bool) -> u128 {
    if negated {
        !bits
    } else {
        bits
    }
}

/// Contents of a `[…]` class.
#[derive(Debug, Clone, PartialEq)]
struct CharClass {
    negated: bool,
    singles: Vec<char>,
    ranges: Vec<(char, char)>,
    perl: Vec<(PerlClass, bool)>, // (class, negated-within-class)
}

impl CharClass {
    fn matches(&self, c: char) -> bool {
        let hit = self.singles.contains(&c)
            || self.ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi)
            || self.perl.iter().any(|&(p, neg)| p.matches(c) != neg);
        hit != self.negated
    }
}

/// One matchable element.
#[derive(Debug, Clone, PartialEq)]
enum Elem {
    Char(char),
    Any,
    Perl(PerlClass, bool), // (class, negated)
    Class(CharClass),
    Boundary(bool), // \b (true) / \B (false) — zero-width
    Start,          // ^ — zero-width
    End,            // $ — zero-width
    Group(Box<Ast>),
}

/// An element with its quantifier.
#[derive(Debug, Clone, PartialEq)]
struct Piece {
    elem: Elem,
    min: u32,
    max: Option<u32>, // None = unbounded
    /// A single-char element's ASCII members as a bitmap, built once at
    /// parse time (0 for zero-width elements and groups).
    ascii: u128,
}

impl Piece {
    /// The test of a single-char element: the bitmap for ASCII, the
    /// element's own test for every other char.
    #[inline]
    fn accepts(&self, c: char) -> bool {
        match u32::from(c) {
            u @ 0..128 => self.ascii >> u & 1 == 1,
            _ => elem_accepts(&self.elem, c),
        }
    }
}

/// Alternation of concatenations.
#[derive(Debug, Clone, PartialEq)]
struct Ast {
    alts: Vec<Vec<Piece>>,
}

/// ASCII members of a single-char element as a bitmap; 0 for
/// zero-width elements and groups.
fn ascii_bits(elem: &Elem) -> u128 {
    match elem {
        Elem::Char(c) => ascii_range(*c, *c),
        Elem::Any => u128::MAX,
        Elem::Perl(p, neg) => negate_if(p.ascii(), *neg),
        Elem::Class(cc) => {
            let singles = cc.singles.iter().map(|&c| ascii_range(c, c));
            let ranges = cc.ranges.iter().map(|&(lo, hi)| ascii_range(lo, hi));
            let perl = cc.perl.iter().map(|&(p, neg)| negate_if(p.ascii(), neg));
            let hit = singles.chain(ranges).chain(perl).fold(0, |a, b| a | b);
            negate_if(hit, cc.negated)
        }
        Elem::Boundary(_) | Elem::Start | Elem::End | Elem::Group(_) => 0,
    }
}

/// The test a single-char element applies to one char.
fn elem_accepts(elem: &Elem, c: char) -> bool {
    match elem {
        Elem::Char(l) => c == *l,
        Elem::Any => true,
        Elem::Perl(p, neg) => p.matches(c) != *neg,
        Elem::Class(cc) => cc.matches(c),
        Elem::Boundary(_) | Elem::Start | Elem::End | Elem::Group(_) => {
            unreachable!("not a single-char element")
        }
    }
}

/// Facts about every match of a pattern, derived once from its syntax
/// tree, that rule out start positions without running the search.
#[derive(Debug, Clone, PartialEq)]
struct Prefilter {
    /// ASCII chars a non-empty match can start with. Non-ASCII chars are
    /// never ruled out.
    first: u128,
    /// Every alternative opens with `\b`.
    boundary: bool,
    /// Literal chars every match contains, sorted.
    required: Vec<char>,
    /// The pattern cannot match the empty string.
    non_empty: bool,
}

impl Prefilter {
    fn new(alts: &[Vec<Piece>]) -> Prefilter {
        let mut first = 0;
        let mut nullable = false;
        for seq in alts {
            nullable |= first_of_seq(seq, &mut first);
        }
        Prefilter {
            first,
            boundary: alts
                .iter()
                .all(|seq| seq.first().is_some_and(|p| p.elem == Elem::Boundary(true))),
            required: required_of_alts(alts),
            non_empty: !nullable,
        }
    }

    /// The last position a match can start at: every required char must
    /// occur at or after it. `None` when nothing can match.
    fn last_start(&self, chars: &[char]) -> Option<usize> {
        let mut last = chars.len().checked_sub(1)?;
        for &c in &self.required {
            last = last.min(chars.iter().rposition(|&x| x == c)?);
        }
        Some(last)
    }

    /// Whether a non-empty match can start at `pos < chars.len()`.
    #[inline]
    fn may_start(&self, chars: &[char], pos: usize) -> bool {
        let c = u32::from(chars[pos]);
        (c >= 128 || self.first >> c & 1 == 1) && (!self.boundary || at_word_boundary(chars, pos))
    }
}

/// Adds to `first` the ASCII chars a non-empty match of `seq` can start
/// with, and returns whether `seq` may match the empty string. Both
/// over-approximate, which only ever widens `first`.
fn first_of_seq(seq: &[Piece], first: &mut u128) -> bool {
    seq.iter().all(|piece| match &piece.elem {
        Elem::Boundary(_) | Elem::Start | Elem::End => true,
        _ if piece.max == Some(0) => true,
        Elem::Group(ast) => {
            let mut nullable = piece.min == 0;
            for alt in &ast.alts {
                nullable |= first_of_seq(alt, first);
            }
            nullable
        }
        _ => {
            *first |= piece.ascii;
            piece.min == 0
        }
    })
}

/// Literal chars every match of one of `alts` contains: what each
/// alternative requires, intersected.
fn required_of_alts(alts: &[Vec<Piece>]) -> Vec<char> {
    let mut each = alts.iter().map(|seq| required_of_seq(seq));
    let first = each.next().unwrap_or_default();
    each.fold(first, |acc, req| {
        acc.into_iter().filter(|c| req.contains(c)).collect()
    })
}

/// Literal chars every match of `seq` contains: those of its mandatory
/// literals and mandatory groups.
fn required_of_seq(seq: &[Piece]) -> Vec<char> {
    let mut req = Vec::new();
    for piece in seq.iter().filter(|p| p.min > 0) {
        match &piece.elem {
            Elem::Char(c) => req.push(*c),
            Elem::Group(ast) => req.extend(required_of_alts(&ast.alts)),
            _ => {}
        }
    }
    req.sort_unstable();
    req.dedup();
    req
}

/// A compiled pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Regex {
    ast: Ast,
    prefilter: Prefilter,
    source: String,
}

impl Regex {
    /// Compiles `pattern`.
    pub fn parse(pattern: &str) -> Result<Regex, PatternError> {
        let ast = parse_ast(pattern)?;
        Ok(Regex {
            prefilter: Prefilter::new(&ast.alts),
            ast,
            source: pattern.to_owned(),
        })
    }

    /// The pattern source this regex was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// True when the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        let chars: Vec<char> = text.chars().collect();
        self.is_match_chars(&chars)
    }

    /// [`Regex::is_match`] over an already-decoded char buffer.
    pub fn is_match_chars(&self, chars: &[char]) -> bool {
        let pre = &self.prefilter;
        if !pre.non_empty {
            return (0..=chars.len()).any(|start| self.match_end(chars, start).is_some());
        }
        pre.last_start(chars).is_some_and(|last| {
            (0..=last)
                .any(|start| pre.may_start(chars, start) && self.match_end(chars, start).is_some())
        })
    }

    /// All non-overlapping matches in `text`, leftmost-first, as
    /// **char-index** `(start, end)` spans. Zero-width matches are
    /// skipped (a rule that matches nothing scrubs nothing).
    pub fn find_all(&self, text: &str) -> Vec<(usize, usize)> {
        let chars: Vec<char> = text.chars().collect();
        self.find_all_chars(&chars)
    }

    /// [`Regex::find_all`] over an already-decoded char buffer.
    pub fn find_all_chars(&self, chars: &[char]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let Some(last) = self.prefilter.last_start(chars) else {
            return spans;
        };
        let mut start = 0;
        while start <= last {
            if self.prefilter.may_start(chars, start) {
                if let Some(end) = self.match_end(chars, start).filter(|&end| end > start) {
                    spans.push((start, end));
                    start = end;
                    continue;
                }
            }
            start += 1;
        }
        spans
    }

    /// End (exclusive, char index) of the leftmost-first match starting
    /// exactly at `start`, if any.
    fn match_end(&self, chars: &[char], start: usize) -> Option<usize> {
        match_alts(&self.ast.alts, chars, start, &Cont::Accept)
    }
}

/// What the search must still match after the current piece: a
/// continuation, kept on the stack.
enum Cont<'a> {
    /// Nothing — the pattern has matched.
    Accept,
    /// The rest of a sequence, then `next`.
    Seq(&'a [Piece], &'a Cont<'a>),
    /// An iteration of the group `piece` (alternatives `alts`) that
    /// began at `start` has ended, after `count` earlier iterations.
    Iter {
        piece: &'a Piece,
        alts: &'a [Vec<Piece>],
        count: u32,
        start: usize,
        next: &'a Cont<'a>,
    },
}

/// End of the first (preferred-order) parse of one of `alts` at `pos`
/// that `k` accepts.
fn match_alts(alts: &[Vec<Piece>], chars: &[char], pos: usize, k: &Cont) -> Option<usize> {
    alts.iter().find_map(|seq| match_seq(seq, chars, pos, k))
}

fn match_seq(seq: &[Piece], chars: &[char], pos: usize, k: &Cont) -> Option<usize> {
    let Some((piece, rest)) = seq.split_first() else {
        return resume(k, chars, pos);
    };
    let holds = match &piece.elem {
        Elem::Group(ast) => {
            return match_group(piece, &ast.alts, 0, chars, pos, &Cont::Seq(rest, k))
        }
        Elem::Boundary(want) => at_word_boundary(chars, pos) == *want,
        Elem::Start => pos == 0,
        Elem::End => pos == chars.len(),
        // Greedy: take the whole run, then back off one char at a time.
        _ => {
            let avail = &chars[pos..];
            let cap = piece
                .max
                .map_or(avail.len(), |m| avail.len().min(m as usize));
            let run = avail[..cap]
                .iter()
                .take_while(|&&c| piece.accepts(c))
                .count();
            return (piece.min as usize..=run)
                .rev()
                .find_map(|n| match_seq(rest, chars, pos + n, k));
        }
    };
    // A zero-width assertion (never quantified).
    if holds {
        match_seq(rest, chars, pos, k)
    } else {
        None
    }
}

/// Greedy group repetition: one more iteration first, then hand over.
fn match_group(
    piece: &Piece,
    alts: &[Vec<Piece>],
    count: u32,
    chars: &[char],
    pos: usize,
    k: &Cont,
) -> Option<usize> {
    if piece.max.is_none_or(|m| count < m) {
        let iter = Cont::Iter {
            piece,
            alts,
            count,
            start: pos,
            next: k,
        };
        if let Some(end) = match_alts(alts, chars, pos, &iter) {
            return Some(end);
        }
    }
    if count >= piece.min {
        resume(k, chars, pos)
    } else {
        None
    }
}

fn resume(k: &Cont, chars: &[char], pos: usize) -> Option<usize> {
    match *k {
        Cont::Accept => Some(pos),
        Cont::Seq(rest, next) => match_seq(rest, chars, pos, next),
        Cont::Iter {
            piece,
            alts,
            count,
            start,
            next,
        } => {
            if pos > start {
                match_group(piece, alts, count + 1, chars, pos, next)
            } else if count + 1 >= piece.min {
                // A zero-width iteration makes no progress; accept the
                // minimum and hand over rather than repeating forever.
                resume(next, chars, pos)
            } else {
                None
            }
        }
    }
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn at_word_boundary(chars: &[char], pos: usize) -> bool {
    let before = pos > 0 && is_word(chars[pos - 1]);
    let after = pos < chars.len() && is_word(chars[pos]);
    before != after
}

/// Parses `pattern` into its syntax tree.
fn parse_ast(pattern: &str) -> Result<Ast, PatternError> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut p = Parser { chars, pos: 0 };
    let ast = p.alternation()?;
    if p.pos != p.chars.len() {
        return Err(p.err("unbalanced ')'"));
    }
    Ok(ast)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> PatternError {
        PatternError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn alternation(&mut self) -> Result<Ast, PatternError> {
        let mut alts = vec![self.sequence()?];
        while self.peek() == Some('|') {
            self.pos += 1;
            alts.push(self.sequence()?);
        }
        Ok(Ast { alts })
    }

    fn sequence(&mut self) -> Result<Vec<Piece>, PatternError> {
        let mut pieces = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            let elem = self.atom()?;
            let (min, max) = self.quantifier(&elem)?;
            let ascii = ascii_bits(&elem);
            pieces.push(Piece {
                elem,
                min,
                max,
                ascii,
            });
        }
        Ok(pieces)
    }

    fn atom(&mut self) -> Result<Elem, PatternError> {
        match self.bump().expect("sequence checked peek") {
            '.' => Ok(Elem::Any),
            '^' => Ok(Elem::Start),
            '$' => Ok(Elem::End),
            '(' => {
                let inner = self.alternation()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(Elem::Group(Box::new(inner)))
            }
            '[' => Ok(Elem::Class(self.char_class()?)),
            '\\' => self.escape(),
            c @ ('*' | '+' | '?') => Err(self.err(format!("dangling quantifier {c:?}"))),
            c => Ok(Elem::Char(c)),
        }
    }

    fn escape(&mut self) -> Result<Elem, PatternError> {
        match self.bump() {
            None => Err(self.err("trailing backslash")),
            Some('d') => Ok(Elem::Perl(PerlClass::Digit, false)),
            Some('D') => Ok(Elem::Perl(PerlClass::Digit, true)),
            Some('w') => Ok(Elem::Perl(PerlClass::Word, false)),
            Some('W') => Ok(Elem::Perl(PerlClass::Word, true)),
            Some('s') => Ok(Elem::Perl(PerlClass::Space, false)),
            Some('S') => Ok(Elem::Perl(PerlClass::Space, true)),
            Some('b') => Ok(Elem::Boundary(true)),
            Some('B') => Ok(Elem::Boundary(false)),
            Some('n') => Ok(Elem::Char('\n')),
            Some('t') => Ok(Elem::Char('\t')),
            Some(c) if !c.is_ascii_alphanumeric() => Ok(Elem::Char(c)),
            Some(c) => Err(self.err(format!("unknown escape \\{c}"))),
        }
    }

    fn char_class(&mut self) -> Result<CharClass, PatternError> {
        let mut cc = CharClass {
            negated: false,
            singles: Vec::new(),
            ranges: Vec::new(),
            perl: Vec::new(),
        };
        if self.peek() == Some('^') {
            cc.negated = true;
            self.pos += 1;
        }
        // A leading ']' is a literal member, as usual.
        let mut first = true;
        loop {
            let c = match self.bump() {
                None => return Err(self.err("unclosed character class")),
                Some(']') if !first => break,
                Some(c) => c,
            };
            first = false;
            let lo = if c == '\\' {
                match self.bump() {
                    None => return Err(self.err("trailing backslash in class")),
                    Some('d') => {
                        cc.perl.push((PerlClass::Digit, false));
                        continue;
                    }
                    Some('D') => {
                        cc.perl.push((PerlClass::Digit, true));
                        continue;
                    }
                    Some('w') => {
                        cc.perl.push((PerlClass::Word, false));
                        continue;
                    }
                    Some('W') => {
                        cc.perl.push((PerlClass::Word, true));
                        continue;
                    }
                    Some('s') => {
                        cc.perl.push((PerlClass::Space, false));
                        continue;
                    }
                    Some('S') => {
                        cc.perl.push((PerlClass::Space, true));
                        continue;
                    }
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some(e) if !e.is_ascii_alphanumeric() => e,
                    Some(e) => return Err(self.err(format!("unknown class escape \\{e}"))),
                }
            } else {
                c
            };
            // `a-z` range, unless the '-' is last (then it's a literal).
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.pos += 1; // consume '-'
                let hi = match self.bump() {
                    None => return Err(self.err("unclosed character class")),
                    Some('\\') => self
                        .bump()
                        .ok_or_else(|| self.err("trailing backslash in class"))?,
                    Some(h) => h,
                };
                if hi < lo {
                    return Err(self.err(format!("inverted range {lo}-{hi}")));
                }
                cc.ranges.push((lo, hi));
            } else {
                cc.singles.push(lo);
            }
        }
        Ok(cc)
    }

    /// Parses the optional quantifier following an atom.
    fn quantifier(&mut self, elem: &Elem) -> Result<(u32, Option<u32>), PatternError> {
        let (min, max) = match self.peek() {
            Some('*') => {
                self.pos += 1;
                (0, None)
            }
            Some('+') => {
                self.pos += 1;
                (1, None)
            }
            Some('?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some('{') => {
                self.pos += 1;
                let min = self.number()?;
                match self.bump() {
                    Some('}') => (min, Some(min)),
                    Some(',') => {
                        if self.peek() == Some('}') {
                            self.pos += 1;
                            (min, None)
                        } else {
                            let max = self.number()?;
                            if self.bump() != Some('}') {
                                return Err(self.err("unclosed {m,n} quantifier"));
                            }
                            if max < min {
                                return Err(self.err(format!("inverted bound {{{min},{max}}}")));
                            }
                            (min, Some(max))
                        }
                    }
                    _ => return Err(self.err("unclosed {m} quantifier")),
                }
            }
            _ => return Ok((1, Some(1))),
        };
        if matches!(elem, Elem::Start | Elem::End | Elem::Boundary(_)) {
            return Err(self.err("quantifier on a zero-width assertion"));
        }
        Ok((min, max))
    }

    fn number(&mut self) -> Result<u32, PatternError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let digits: String = self.chars[start..self.pos].iter().collect();
        digits
            .parse()
            .map_err(|_| self.err(format!("quantifier bound {digits} out of range")))
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(pat: &str, text: &str) -> Vec<(usize, usize)> {
        Regex::parse(pat).unwrap().find_all(text)
    }

    fn matched(pat: &str, text: &str) -> Vec<String> {
        let chars: Vec<char> = text.chars().collect();
        spans(pat, text)
            .into_iter()
            .map(|(s, e)| chars[s..e].iter().collect())
            .collect()
    }

    #[test]
    fn literals_and_dot() {
        assert!(Regex::parse("abc").unwrap().is_match("xxabcxx"));
        assert!(!Regex::parse("abc").unwrap().is_match("ab"));
        assert_eq!(matched("a.c", "abc adc a c"), vec!["abc", "adc", "a c"]);
    }

    #[test]
    fn perl_classes_and_boundaries() {
        assert_eq!(matched(r"\d+", "a12 b345"), vec!["12", "345"]);
        assert_eq!(matched(r"\b\d{2}\b", "12 345 67"), vec!["12", "67"]);
        assert!(Regex::parse(r"\w+").unwrap().is_match("under_score9"));
        assert!(Regex::parse(r"\s").unwrap().is_match("a b"));
        assert!(!Regex::parse(r"\S").unwrap().is_match("  \t"));
        // \b does not fire between two word chars
        assert_eq!(matched(r"\b\d{4}\b", "TOK_X_1234"), Vec::<String>::new());
    }

    #[test]
    fn classes_ranges_and_negation() {
        assert_eq!(matched("[a-c]+", "abcd"), vec!["abc"]);
        assert_eq!(matched("[^0-9]+", "ab12cd"), vec!["ab", "cd"]);
        assert_eq!(matched(r"[\d.-]+", "a1.2-3b"), vec!["1.2-3"]);
        assert_eq!(matched("[]a]+", "]a]b"), vec!["]a]"]);
        assert_eq!(matched("[a-]+", "a-b"), vec!["a-"]);
    }

    #[test]
    fn quantifiers() {
        assert_eq!(matched("ab*c", "ac abc abbbc"), vec!["ac", "abc", "abbbc"]);
        assert_eq!(matched("ab+c", "ac abc"), vec!["abc"]);
        assert_eq!(matched("ab?c", "ac abc abbc"), vec!["ac", "abc"]);
        assert_eq!(
            matched(r"\d{2,3}", "1 22 333 4444"),
            vec!["22", "333", "444"]
        );
        assert_eq!(matched(r"a{2}", "a aa aaa"), vec!["aa", "aa"]);
        assert_eq!(matched(r"\d{3,}", "12 1234567"), vec!["1234567"]);
    }

    #[test]
    fn groups_and_alternation() {
        assert_eq!(matched("(ab)+", "ababab ab"), vec!["ababab", "ab"]);
        assert_eq!(matched("cat|dog", "a cat and a dog"), vec!["cat", "dog"]);
        assert_eq!(
            matched(r"(\d{3}[-. ])?\d{4}", "555-1234 and 9876"),
            vec!["555-1234", "9876"]
        );
        // leftmost-first: the first alternative wins
        assert_eq!(matched("a|ab", "ab"), vec!["a"]);
    }

    #[test]
    fn anchors() {
        assert!(Regex::parse("^abc$").unwrap().is_match("abc"));
        assert!(!Regex::parse("^abc$").unwrap().is_match("xabc"));
        assert_eq!(matched("^a", "aaa"), vec!["a"]);
    }

    #[test]
    fn realistic_pii_patterns() {
        let ssn = r"\b\d{3}-\d{2}-\d{4}\b";
        assert_eq!(matched(ssn, "ssn 123-45-6789."), vec!["123-45-6789"]);
        assert!(!Regex::parse(ssn).unwrap().is_match("1234-45-6789"));
        assert!(!Regex::parse(ssn).unwrap().is_match("(555) 210-4477"));

        let email = r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b";
        assert_eq!(
            matched(email, "mail a.b+c@ex-1.example.com now"),
            vec!["a.b+c@ex-1.example.com"]
        );

        let phone = r"(\(\d{3}\)[ -]?|\b\d{3}[-. ])\d{3}[-. ]\d{4}\b";
        assert_eq!(
            matched(phone, "call (555) 210-4477"),
            vec!["(555) 210-4477"]
        );
        assert_eq!(matched(phone, "or 555.210.4477 ok"), vec!["555.210.4477"]);
        assert!(!Regex::parse(phone).unwrap().is_match("123-45-6789"));

        let ip = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b";
        assert_eq!(matched(ip, "from 10.0.255.1:80"), vec!["10.0.255.1"]);
    }

    #[test]
    fn non_overlapping_leftmost_scan() {
        assert_eq!(spans(r"\d\d", "12345"), vec![(0, 2), (2, 4)]);
        // char-index spans survive non-ASCII prefixes
        assert_eq!(matched(r"\d+", "déjà 42"), vec!["42"]);
        assert_eq!(spans(r"\d+", "déjà 42"), vec![(5, 7)]);
    }

    #[test]
    fn zero_width_matches_are_skipped() {
        assert_eq!(spans("a*", "bbb"), Vec::<(usize, usize)>::new());
        assert_eq!(matched("a*", "baab"), vec!["aa"]);
        // zero-width-capable group under an unbounded quantifier terminates
        assert_eq!(matched("(a?)*b", "aab"), vec!["aab"]);
    }

    /// Every single-char element's bitmap agrees with the element's own
    /// test on all 128 ASCII chars.
    #[test]
    fn ascii_bitmaps_equal_the_element_tests() {
        let sources = [
            "a",
            "é",
            ".",
            r"\d",
            r"\D",
            r"\w",
            r"\W",
            r"\s",
            r"\S",
            r"\t",
            "[a-c]",
            "[^a-c]",
            "[]a]",
            "[a-]",
            r"[\d.-]",
            r"[^\W_]",
            r"[\s\S]",
            "[ -~]",
            "[\u{7f}-\u{ff}]",
            r"[A-Za-z0-9._%+-]",
            "[é-ü]",
        ];
        for source in sources {
            let piece = &parse_ast(source).unwrap().alts[0][0];
            for b in 0..128u8 {
                let c = char::from(b);
                assert_eq!(
                    piece.accepts(c),
                    elem_accepts(&piece.elem, c),
                    "{source:?} on {c:?}"
                );
            }
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "a(", "a)", "[abc", "a**", "*a", r"\q", "a{2,1}", "a{", "^*", r"\",
        ] {
            assert!(Regex::parse(bad).is_err(), "{bad:?} should not compile");
        }
        let e = Regex::parse("[z-a]").unwrap_err();
        assert!(e.to_string().contains("inverted range"), "{e}");
    }
}
