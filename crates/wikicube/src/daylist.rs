//! Shared per-field day lists in one CSR arena.
//!
//! Every stage of the pipeline needs "the sorted change days of field X":
//! the per-day index, the correlation pair search, the baselines and the
//! Apriori transaction builder. [`DayListStore`] materializes them
//! **once**, in compressed-sparse-row layout — every field's days back to
//! back in one `Vec<Date>`, plus `u32` offsets — and is shared by
//! reference (`Arc`) between the cube, the index and the predictors.
//!
//! A field's list is a plain sorted slice ([`DayList::as_slice`]), so the
//! lookups the predictors make ("last change before", "changed in this
//! window") are binary searches and kernels read the days in place,
//! without decoding a copy.

use crate::change::ChangeKind;
use crate::cube::ChangeCube;
use crate::date::{Date, DateRange};
use crate::fxhash::FxHashMap;
use crate::ids::FieldId;
use std::iter::Copied;
use std::slice;

/// One sorted day list per field, stored in a shared CSR arena.
///
/// Fields are sorted by `(entity, property)` and addressed by dense
/// position, exactly like [`crate::CubeIndex`] positions.
#[derive(Debug, Clone, Default)]
pub struct DayListStore {
    /// All fields with at least one stored day, sorted.
    fields: Vec<FieldId>,
    /// Field id → dense position in `fields`.
    field_pos: FxHashMap<FieldId, u32>,
    /// CSR offsets into `days` (`fields.len() + 1` entries).
    offsets: Vec<u32>,
    /// Every field's strictly increasing days, concatenated in field order.
    days: Vec<Date>,
}

impl DayListStore {
    /// Build the store over `cube`'s changes of `kinds` (`None` keeps
    /// every kind).
    ///
    /// The change table is sorted by `(day, entity, property)` with one
    /// row per key, so the CSR is written directly in two serial passes
    /// over the columns: the first counts each kept field's rows, the
    /// second writes each row's day at its field's cursor. Every list
    /// comes out strictly increasing, with no per-field vectors, sort or
    /// dedup.
    pub(crate) fn from_cube(cube: &ChangeCube, kinds: Option<&[ChangeKind]>) -> DayListStore {
        let cols = cube.columns();
        let kept = || {
            (0..cols.len())
                .filter(move |&i| kinds.is_none_or(|ks| ks.contains(&cols.kinds()[i])))
                .map(move |i| {
                    let field = FieldId::new(cols.entities()[i], cols.properties()[i]);
                    (field, cols.days()[i])
                })
        };

        // Pass 1: rows per field. The map is reused for field positions.
        let mut field_pos: FxHashMap<FieldId, u32> = FxHashMap::default();
        for (field, _) in kept() {
            *field_pos.entry(field).or_default() += 1;
        }
        let mut fields: Vec<FieldId> = field_pos.keys().copied().collect();
        fields.sort_unstable();
        // `offsets[pos + 1]` starts as the first slot of field `pos` and
        // serves as its write cursor, so after pass 2 it is the field's
        // end: the CSR offsets.
        let mut offsets = Vec::with_capacity(fields.len() + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for (pos, field) in fields.iter().enumerate() {
            offsets.push(total);
            if let Some(slot) = field_pos.get_mut(field) {
                total += *slot;
                *slot = pos as u32;
            }
        }

        // Pass 2: each row's day at its field's cursor.
        let mut days = vec![Date::EPOCH; total as usize];
        for (field, day) in kept() {
            if let Some(&pos) = field_pos.get(&field) {
                let cursor = &mut offsets[pos as usize + 1];
                days[*cursor as usize] = day;
                *cursor += 1;
            }
        }
        DayListStore {
            fields,
            field_pos,
            offsets,
            days,
        }
    }

    /// Number of fields with at least one stored day.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// All fields, sorted by `(entity, property)`.
    pub fn fields(&self) -> &[FieldId] {
        &self.fields
    }

    /// The field at dense position `pos`.
    pub fn field(&self, pos: usize) -> FieldId {
        self.fields[pos]
    }

    /// Dense position of `field`, if present.
    pub fn position(&self, field: FieldId) -> Option<usize> {
        self.field_pos.get(&field).map(|&p| p as usize)
    }

    /// The day list at dense position `pos`.
    pub fn list(&self, pos: usize) -> DayList<'_> {
        let lo = self.offsets[pos] as usize;
        let hi = self.offsets[pos + 1] as usize;
        DayList {
            days: &self.days[lo..hi],
        }
    }

    /// The day list of `field`, if present.
    pub fn get(&self, field: FieldId) -> Option<DayList<'_>> {
        self.position(field).map(|pos| self.list(pos))
    }

    /// Iterate `(position, field, day list)` in field order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FieldId, DayList<'_>)> {
        (0..self.fields.len()).map(move |pos| (pos, self.fields[pos], self.list(pos)))
    }

    /// Total number of stored days across all fields.
    pub fn total_days(&self) -> usize {
        self.days.len()
    }

    /// Heap bytes held by the store (arena vectors plus an estimate of
    /// the position map's table).
    pub fn heap_bytes(&self) -> usize {
        self.fields.capacity() * std::mem::size_of::<FieldId>()
            + self.days.capacity() * std::mem::size_of::<Date>()
            + self.offsets.capacity() * 4
            + self.field_pos.capacity() * (std::mem::size_of::<FieldId>() + 4)
    }
}

/// A borrowed view of one field's sorted change days.
#[derive(Debug, Clone, Copy)]
pub struct DayList<'a> {
    days: &'a [Date],
}

impl<'a> DayList<'a> {
    /// An empty list (useful as a default when a field is absent).
    pub const EMPTY: DayList<'static> = DayList { days: &[] };

    /// The days as a strictly increasing slice, borrowed from the store.
    pub fn as_slice(&self) -> &'a [Date] {
        self.days
    }

    /// Number of days in the list.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// Whether the list has no days.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// Iterate the days in ascending order.
    pub fn iter(&self) -> Copied<slice::Iter<'a, Date>> {
        self.days.iter().copied()
    }

    /// The earliest day, if any.
    pub fn first(&self) -> Option<Date> {
        self.days.first().copied()
    }

    /// The latest day, if any.
    pub fn last(&self) -> Option<Date> {
        self.days.last().copied()
    }

    /// Number of days strictly before `before`.
    pub fn count_before(&self, before: Date) -> usize {
        self.days.partition_point(|&d| d < before)
    }

    /// The latest day strictly before `before`, if any.
    pub fn last_before(&self, before: Date) -> Option<Date> {
        self.days[..self.count_before(before)].last().copied()
    }

    /// Whether any day falls in the half-open window `[start, end)`.
    pub fn changed_in(&self, start: Date, end: Date) -> bool {
        self.days
            .get(self.count_before(start))
            .is_some_and(|&d| d < end)
    }

    /// Iterate the days at or after `from`, ascending.
    pub fn iter_from(&self, from: Date) -> Copied<slice::Iter<'a, Date>> {
        self.days[self.count_before(from)..].iter().copied()
    }

    /// Iterate the days inside the half-open `range`, ascending.
    pub fn iter_in(&self, range: DateRange) -> Copied<slice::Iter<'a, Date>> {
        let from = &self.days[self.count_before(range.start())..];
        from[..from.partition_point(|&d| d < range.end())]
            .iter()
            .copied()
    }

    /// Copy the list into a fresh vector.
    pub fn to_vec(&self) -> Vec<Date> {
        self.days.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    fn field(e: u32, p: u32) -> FieldId {
        FieldId::new(crate::ids::EntityId(e), crate::ids::PropertyId(p))
    }

    /// A store holding `lists`, each strictly increasing, in any field
    /// order.
    fn store_of(lists: &[(FieldId, Vec<i32>)]) -> DayListStore {
        let mut lists = lists.to_vec();
        lists.sort_unstable_by_key(|&(field, _)| field);
        let mut store = DayListStore {
            offsets: vec![0],
            ..DayListStore::default()
        };
        for (pos, (field, days)) in lists.into_iter().enumerate() {
            store.fields.push(field);
            store.field_pos.insert(field, pos as u32);
            store.days.extend(days.into_iter().map(day));
            store.offsets.push(store.days.len() as u32);
        }
        store
    }

    #[test]
    fn empty_store() {
        let store = store_of(&[]);
        assert_eq!(store.num_fields(), 0);
        assert_eq!(store.total_days(), 0);
        assert!(store.get(field(0, 0)).is_none());
    }

    #[test]
    fn round_trips_simple_lists() {
        let store = store_of(&[
            (field(0, 0), vec![1, 2, 3, 10, 11, 40]),
            (field(0, 1), vec![5]),
            (field(1, 0), vec![0, 100, 200]),
        ]);
        assert_eq!(store.num_fields(), 3);
        assert_eq!(store.total_days(), 10);
        assert!(store.heap_bytes() >= 10 * 4 + 4 * 4);
        let l = store.get(field(0, 0)).unwrap();
        assert_eq!(l.len(), 6);
        assert_eq!(
            l.to_vec(),
            vec![day(1), day(2), day(3), day(10), day(11), day(40)]
        );
        assert_eq!(store.get(field(0, 1)).unwrap().to_vec(), vec![day(5)]);
        assert_eq!(
            store.get(field(1, 0)).unwrap().to_vec(),
            vec![day(0), day(100), day(200)]
        );
    }

    #[test]
    fn fields_are_sorted_and_positioned() {
        let store = store_of(&[
            (field(2, 0), vec![3]),
            (field(0, 5), vec![1]),
            (field(0, 1), vec![2]),
        ]);
        assert_eq!(store.fields(), &[field(0, 1), field(0, 5), field(2, 0)]);
        assert_eq!(store.position(field(0, 5)), Some(1));
        assert_eq!(store.field(2), field(2, 0));
        assert_eq!(store.position(field(9, 9)), None);
        let collected: Vec<FieldId> = store.iter().map(|(_, f, _)| f).collect();
        assert_eq!(collected, store.fields());
    }

    #[test]
    fn first_last_and_counts() {
        let store = store_of(&[
            (field(0, 0), vec![2, 3, 4, 9, 20, 21]),
            (field(0, 1), vec![0, 20_000_000]),
            (field(0, 2), (0..1000).collect()),
        ]);
        let l = store.list(0);
        assert_eq!(l.first(), Some(day(2)));
        assert_eq!(l.last(), Some(day(21)));
        assert_eq!(l.count_before(day(2)), 0);
        assert_eq!(l.count_before(day(4)), 2);
        assert_eq!(l.count_before(day(10)), 4);
        assert_eq!(l.count_before(day(100)), 6);
        assert_eq!(l.last_before(day(2)), None);
        assert_eq!(l.last_before(day(9)), Some(day(4)));
        assert_eq!(l.last_before(day(21)), Some(day(20)));
        assert_eq!(l.last_before(day(500)), Some(day(21)));

        // A gap of 20 million days, probed at the stored day after it.
        let gap = store.list(1);
        assert_eq!(gap.last(), Some(day(20_000_000)));
        assert_eq!(gap.count_before(day(20_000_000)), 1);
        assert_eq!(gap.count_before(day(20_000_001)), 2);
        assert_eq!(gap.last_before(day(20_000_000)), Some(day(0)));
        assert_eq!(gap.last_before(day(20_000_001)), Some(day(20_000_000)));

        // A 1,000-day run of consecutive days.
        let run = store.list(2);
        assert_eq!(run.len(), 1000);
        assert_eq!(run.first(), Some(day(0)));
        assert_eq!(run.last(), Some(day(999)));
        assert_eq!(run.count_before(day(500)), 500);
        assert_eq!(run.last_before(day(500)), Some(day(499)));
        assert_eq!(
            run.iter_from(day(998)).collect::<Vec<_>>(),
            vec![day(998), day(999)]
        );

        assert_eq!(DayList::EMPTY.first(), None);
        assert_eq!(DayList::EMPTY.last(), None);
        assert_eq!(DayList::EMPTY.count_before(day(0)), 0);
        assert_eq!(DayList::EMPTY.last_before(day(0)), None);
        assert!(DayList::EMPTY.is_empty());
    }

    #[test]
    fn changed_in_windows() {
        let store = store_of(&[
            (field(0, 0), vec![5, 6, 7, 30]),
            (field(0, 1), vec![0, 20_000_000]),
            (field(0, 2), (0..1000).collect()),
        ]);
        let l = store.list(0);
        assert!(l.changed_in(day(5), day(6)));
        assert!(l.changed_in(day(7), day(8)));
        assert!(l.changed_in(day(0), day(100)));
        assert!(l.changed_in(day(30), day(31)));
        assert!(!l.changed_in(day(8), day(30)));
        assert!(!l.changed_in(day(31), day(100)));
        // start >= end is an empty window.
        assert!(!l.changed_in(day(6), day(6)));
        assert!(!l.changed_in(day(7), day(5)));

        let gap = store.list(1);
        assert!(gap.changed_in(day(19_999_999), day(20_000_001)));
        assert!(gap.changed_in(day(20_000_000), day(20_000_001)));
        assert!(!gap.changed_in(day(1), day(20_000_000)));

        let run = store.list(2);
        assert!(run.changed_in(day(999), day(1000)));
        assert!(run.changed_in(day(-5), day(1)));
        assert!(!run.changed_in(day(1000), day(2000)));
        assert!(!run.changed_in(day(500), day(500)));

        assert!(!DayList::EMPTY.changed_in(day(0), day(100)));
    }

    #[test]
    fn iter_from_and_iter_in() {
        let store = store_of(&[(field(0, 0), vec![1, 2, 3, 10, 11, 40])]);
        let l = store.list(0);
        let from = |d: i32| l.iter_from(day(d)).collect::<Vec<_>>();
        assert_eq!(from(0), l.to_vec());
        assert_eq!(from(2), vec![day(2), day(3), day(10), day(11), day(40)]);
        assert_eq!(from(4), vec![day(10), day(11), day(40)]);
        assert_eq!(from(41), Vec::<Date>::new());
        let win: Vec<Date> = l.iter_in(DateRange::new(day(2), day(11))).collect();
        assert_eq!(win, vec![day(2), day(3), day(10)]);
        assert!(l.iter_in(DateRange::new(day(4), day(10))).next().is_none());
    }

    #[test]
    fn exact_size_iteration() {
        let store = store_of(&[(field(0, 0), vec![1, 2, 3, 50, 51])]);
        let l = store.list(0);
        let mut it = l.iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
        let rest: Vec<Date> = it.collect();
        assert_eq!(rest, vec![day(2), day(3), day(50), day(51)]);
        let mut from = l.iter_from(day(3));
        assert_eq!(from.len(), 3);
        from.next();
        assert_eq!(from.len(), 2);
    }

    #[test]
    fn as_slice_views_each_field() {
        let store = store_of(&[(field(0, 0), vec![7, 9]), (field(0, 1), vec![1, 2, 3])]);
        assert_eq!(store.list(0).as_slice(), &[day(7), day(9)]);
        assert_eq!(store.list(1).as_slice(), &[day(1), day(2), day(3)]);
        assert_eq!(DayList::EMPTY.as_slice(), &[] as &[Date]);
    }

    #[test]
    fn negative_days_round_trip() {
        let store = store_of(&[
            (field(0, 0), vec![-400, -399, -1]),
            (field(0, 1), vec![-5, 10]),
        ]);
        assert_eq!(store.list(0).to_vec(), vec![day(-400), day(-399), day(-1)]);
        assert_eq!(store.list(1).to_vec(), vec![day(-5), day(10)]);
    }

    mod props {
        use super::*;

        /// Strictly increasing day lists with adversarial gaps: dense
        /// runs, isolated days, gaps of 250-299 days and jumps of about
        /// 2^24 days. Each step is a (kind, raw) pair mapped to one of
        /// four gap classes.
        fn day_list_strategy() -> impl Strategy<Value = Vec<i32>> {
            (
                -50_000i32..50_000,
                proptest::collection::vec((0u8..4, 0i64..64), 0..40),
            )
                .prop_map(|(start, steps)| {
                    let mut d = start as i64;
                    let mut out = vec![start];
                    for (kind, raw) in steps {
                        let step = match kind {
                            0 => 1,                      // extend a run
                            1 => 1 + raw % 3,            // small gaps
                            2 => 250 + raw % 50,         // 250-299 day gaps
                            _ => 0xFF_FFF0 + raw % 0x20, // gaps near 2^24 days
                        };
                        d += step;
                        if d > i32::MAX as i64 / 2 {
                            break;
                        }
                        out.push(d as i32);
                    }
                    out
                })
        }

        proptest! {
            /// Storing and reading back is the identity for any sorted day set.
            #[test]
            fn prop_round_trip(lists in proptest::collection::vec(day_list_strategy(), 1..8)) {
                let named: Vec<(FieldId, Vec<i32>)> = lists
                    .into_iter()
                    .enumerate()
                    .map(|(i, l)| (field(i as u32, i as u32 % 3), l))
                    .collect();
                let store = store_of(&named);
                for (f, days) in &named {
                    let expected: Vec<Date> = days.iter().map(|&n| day(n)).collect();
                    let l = store.get(*f).unwrap();
                    prop_assert_eq!(l.len(), expected.len());
                    prop_assert_eq!(l.as_slice(), expected.as_slice());
                    prop_assert_eq!(l.to_vec(), expected.clone());
                    prop_assert_eq!(l.first(), expected.first().copied());
                    prop_assert_eq!(l.last(), expected.last().copied());
                }
            }

            /// Every navigation helper agrees with a plain filter over the input.
            #[test]
            fn prop_navigation_matches_decoded(days in day_list_strategy(), probe in -60_000i32..60_000) {
                let store = store_of(&[(field(0, 0), days.clone())]);
                let l = store.list(0);
                let p = day(probe);
                let before: Vec<i32> = days.iter().copied().filter(|&d| d < probe).collect();
                prop_assert_eq!(l.count_before(p), before.len());
                prop_assert_eq!(l.last_before(p), before.last().map(|&n| day(n)));
                let after: Vec<Date> =
                    days.iter().copied().filter(|&d| d >= probe).map(day).collect();
                prop_assert_eq!(l.iter_from(p).collect::<Vec<_>>(), after);
                let end = p + 30;
                let range = DateRange::new(p, end);
                let inside: Vec<Date> = days
                    .iter()
                    .copied()
                    .map(day)
                    .filter(|&d| range.contains(d))
                    .collect();
                prop_assert_eq!(l.changed_in(p, end), !inside.is_empty());
                prop_assert_eq!(l.iter_in(range).collect::<Vec<_>>(), inside);
            }
        }
    }
}
