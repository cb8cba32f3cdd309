//! Allocation-free reporting of merge results.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ProcessId;

/// The set of processes whose dependency-vector entries a merge updated —
/// the paper's "new causal information" set that drives RDT-LGC's
/// `release`/`link` calls (Algorithm 2, lines 4–5).
///
/// Stored as a bitset: one `u128` word covers systems of up to 128
/// processes without touching the heap (the common case on the hot
/// receive path); larger systems spill the high bits into a lazily
/// allocated vector of `u64` words.
///
/// Iteration order is ascending process id, matching the order the old
/// `Vec<ProcessId>` reporting produced.
///
/// # Example
///
/// ```
/// use rdt_base::{ProcessId, UpdateSet};
///
/// let mut set = UpdateSet::new();
/// assert!(set.is_empty());
/// set.insert(ProcessId::new(2));
/// set.insert(ProcessId::new(0));
/// assert_eq!(set.len(), 2);
/// assert!(set.contains(ProcessId::new(2)));
/// assert_eq!(set.to_vec(), vec![ProcessId::new(0), ProcessId::new(2)]);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UpdateSet {
    /// Bits for processes `0..128`.
    lo: u128,
    /// Bits for processes `128..`, 64 per word; empty unless touched.
    hi: Vec<u64>,
}

/// Membership equality: spill words holding only zeros do not distinguish
/// sets (a cleared set equals a never-spilled one).
impl PartialEq for UpdateSet {
    fn eq(&self, other: &Self) -> bool {
        fn trimmed(words: &[u64]) -> &[u64] {
            let end = words
                .iter()
                .rposition(|&w| w != 0)
                .map_or(0, |last| last + 1);
            &words[..end]
        }
        self.lo == other.lo && trimmed(&self.hi) == trimmed(&other.hi)
    }
}

impl Eq for UpdateSet {}

impl std::hash::Hash for UpdateSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.lo.hash(state);
        let end = self
            .hi
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |last| last + 1);
        self.hi[..end].hash(state);
    }
}

impl UpdateSet {
    /// The empty set. Never allocates.
    pub const fn new() -> Self {
        Self {
            lo: 0,
            hi: Vec::new(),
        }
    }

    /// Adds `p` to the set. Allocates only for `p.index() >= 128`.
    pub fn insert(&mut self, p: ProcessId) {
        let i = p.index();
        if i < 128 {
            self.lo |= 1u128 << i;
        } else {
            let word = (i - 128) / 64;
            if self.hi.len() <= word {
                self.hi.resize(word + 1, 0);
            }
            self.hi[word] |= 1u64 << ((i - 128) % 64);
        }
    }

    /// ORs a 64-bit mask of members into the set: bit `b` of `bits` stands
    /// for process `word * 64 + b`. This is how the branch-free
    /// dependency-vector merge reports a whole 64-entry chunk at once,
    /// straight from its compare mask. Allocates only when a non-zero mask
    /// lands beyond process 128.
    #[inline]
    pub fn or_word(&mut self, word: usize, bits: u64) {
        match word {
            0 => self.lo |= bits as u128,
            1 => self.lo |= (bits as u128) << 64,
            _ => {
                if bits == 0 {
                    return;
                }
                let spill = word - 2;
                if self.hi.len() <= spill {
                    self.hi.resize(spill + 1, 0);
                }
                self.hi[spill] |= bits;
            }
        }
    }

    /// The set's non-zero 64-bit words, ascending: `(word, bits)` where bit
    /// `b` of `bits` stands for process `word * 64 + b` — what
    /// [`or_word`](Self::or_word) takes, handed back. Up to 64 processes
    /// that is at most one word; a set of news about a few processes of a
    /// wide system is a few words, however wide.
    pub fn words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let lo = [self.lo as u64, (self.lo >> 64) as u64];
        let all = lo.into_iter().chain(self.hi.iter().copied()).enumerate();
        all.filter(|&(_, bits)| bits != 0)
    }

    /// Calls `visit` with every member's index, ascending: [`iter`](Self::iter)
    /// as a plain loop over the words, for the kernels that copy entries
    /// in and out of a vector.
    #[inline]
    pub(crate) fn for_each_index(&self, mut visit: impl FnMut(usize)) {
        let lo = [self.lo as u64, (self.lo >> 64) as u64];
        for (word, &bits) in lo.iter().chain(&self.hi).enumerate() {
            let mut rest = bits;
            while rest != 0 {
                visit(word * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
    }

    /// Whether `p` is in the set.
    pub fn contains(&self, p: ProcessId) -> bool {
        let i = p.index();
        if i < 128 {
            self.lo & (1u128 << i) != 0
        } else {
            let word = (i - 128) / 64;
            self.hi
                .get(word)
                .is_some_and(|w| w & (1u64 << ((i - 128) % 64)) != 0)
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.lo == 0 && self.hi.iter().all(|&w| w == 0)
    }

    /// Number of processes in the set.
    pub fn len(&self) -> usize {
        self.lo.count_ones() as usize
            + self
                .hi
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Empties the set, keeping any spill capacity.
    pub fn clear(&mut self) {
        self.lo = 0;
        self.hi.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates the members in ascending process-id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let lo_bits = BitIter { word: self.lo };
        let hi_bits = self
            .hi
            .iter()
            .enumerate()
            .flat_map(|(k, &w)| BitIter { word: w as u128 }.map(move |b| b + 128 + k * 64));
        lo_bits.chain(hi_bits).map(ProcessId::new)
    }

    /// The members as a vector, ascending (convenience for tests and
    /// display paths; the hot path iterates instead).
    pub fn to_vec(&self) -> Vec<ProcessId> {
        self.iter().collect()
    }
}

impl FromIterator<ProcessId> for UpdateSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut set = Self::new();
        for p in iter {
            set.insert(p);
        }
        set
    }
}

impl<'a> IntoIterator for &'a UpdateSet {
    type Item = ProcessId;
    type IntoIter = Box<dyn Iterator<Item = ProcessId> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl fmt::Display for UpdateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, p) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Iterates set bits of one 128-bit word, ascending.
struct BitIter {
    word: u128,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn empty_set_has_no_members() {
        let set = UpdateSet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.to_vec(), Vec::<ProcessId>::new());
        assert_eq!(set.to_string(), "{}");
    }

    #[test]
    fn insert_contains_roundtrip_across_words() {
        let mut set = UpdateSet::new();
        for i in [0usize, 5, 63, 64, 127, 128, 190, 300] {
            set.insert(p(i));
        }
        for i in [0usize, 5, 63, 64, 127, 128, 190, 300] {
            assert!(set.contains(p(i)), "{i}");
        }
        for i in [1usize, 62, 126, 129, 299, 301] {
            assert!(!set.contains(p(i)), "{i}");
        }
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut set = UpdateSet::new();
        for i in [300usize, 2, 128, 64, 0] {
            set.insert(p(i));
        }
        assert_eq!(set.to_vec(), vec![p(0), p(2), p(64), p(128), p(300)]);
    }

    #[test]
    fn no_spill_allocation_below_128() {
        let mut set = UpdateSet::new();
        for i in 0..128 {
            set.insert(p(i));
        }
        assert_eq!(set.hi.capacity(), 0, "lo word must absorb 0..128");
        assert_eq!(set.len(), 128);
    }

    #[test]
    fn clear_retains_spill_capacity() {
        let mut set = UpdateSet::new();
        set.insert(p(200));
        let cap = set.hi.capacity();
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.hi.capacity(), cap);
        assert!(!set.contains(p(200)));
    }

    #[test]
    fn duplicate_inserts_are_idempotent() {
        let mut set = UpdateSet::new();
        set.insert(p(3));
        set.insert(p(3));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let set: UpdateSet = [p(1), p(4)].into_iter().collect();
        assert_eq!(set.to_vec(), vec![p(1), p(4)]);
        assert_eq!(set.to_string(), "{p2, p5}");
    }

    #[test]
    fn or_word_matches_per_bit_inserts() {
        let mut by_word = UpdateSet::new();
        by_word.or_word(0, 1 << 3 | 1 << 63);
        by_word.or_word(1, 1 << 0); // process 64
        by_word.or_word(2, 1 << 5); // process 133
        by_word.or_word(3, 0); // no members: must not allocate spill
        let by_insert: UpdateSet = [p(3), p(63), p(64), p(133)].into_iter().collect();
        assert_eq!(by_word, by_insert);
        assert_eq!(by_word.to_vec(), vec![p(3), p(63), p(64), p(133)]);
    }

    #[test]
    fn or_word_zero_mask_never_spills() {
        let mut set = UpdateSet::new();
        set.or_word(5, 0);
        assert!(set.is_empty());
        assert_eq!(set.hi.capacity(), 0);
    }

    #[test]
    fn words_are_the_non_zero_words_of_inserted_members() {
        // Members on both sides of each word boundary: 64, 128 (the end of
        // the inline u128) and 192 (the first spill word's end).
        let members = [0usize, 5, 63, 64, 65, 127, 128, 129, 191, 192, 193, 320];
        for take in 0..=members.len() {
            let set: UpdateSet = members[..take].iter().map(|&i| p(i)).collect();
            let mut expected: Vec<(usize, u64)> = Vec::new();
            for &i in &members[..take] {
                match expected.last_mut() {
                    Some((word, bits)) if *word == i / 64 => *bits |= 1 << (i % 64),
                    _ => expected.push((i / 64, 1 << (i % 64))),
                }
            }
            assert_eq!(set.words().collect::<Vec<_>>(), expected, "{take}");
            let mut rebuilt = UpdateSet::new();
            set.words()
                .for_each(|(word, bits)| rebuilt.or_word(word, bits));
            assert_eq!(rebuilt, set);
        }
    }

    #[test]
    fn words_skip_zero_words_inline_and_spilled() {
        let mut set: UpdateSet = [p(70), p(200), p(400)].into_iter().collect();
        assert_eq!(
            set.words().collect::<Vec<_>>(),
            vec![(1, 1 << 6), (3, 1 << 8), (6, 1 << 16)]
        );
        set.clear();
        assert_eq!(set.words().count(), 0, "cleared spill words are zero");
    }

    #[test]
    fn equality_ignores_spill_capacity() {
        let mut a = UpdateSet::new();
        a.insert(p(1));
        let mut b = UpdateSet::new();
        b.insert(p(200));
        b.clear();
        b.insert(p(1));
        // Same members even though b carries zeroed spill words.
        assert_eq!(a, b);
        assert!(b.hi.iter().all(|&w| w == 0));
    }
}
