//! Content hashes: a fingerprint per delivered tensor, the multiset check
//! against the single-threaded reference, and the digest of generated
//! inputs.

use dsi_types::{MiniBatchTensor, Sample};

/// A 64-bit running hash over words. Not cryptographic: it only has to make
/// a dropped, duplicated or bit-flipped batch visible.
#[derive(Debug, Clone, Copy)]
pub struct Hasher(u64);

impl Default for Hasher {
    fn default() -> Self {
        Self(0x9e37_79b9_7f4a_7c15)
    }
}

impl Hasher {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(23) ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }

    /// Length-prefixed, so adjacent runs cannot trade elements.
    fn f32s(&mut self, values: &[f32]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(u64::from(v.to_bits()));
        }
    }

    fn u64s(&mut self, values: &[u64]) {
        self.word(values.len() as u64);
        for &v in values {
            self.word(v);
        }
    }

    pub fn finish(self) -> u64 {
        dsi_types::rng::mix64(self.0)
    }
}

/// Hash of every bit a trainer would read from `tensor`.
pub fn tensor_fingerprint(tensor: &MiniBatchTensor) -> u64 {
    let mut h = Hasher::default();
    h.word(tensor.dense.rows() as u64);
    h.word(tensor.dense.cols() as u64);
    h.f32s(tensor.dense.as_slice());
    h.f32s(&tensor.labels);
    h.word(tensor.sparse.len() as u64);
    for s in &tensor.sparse {
        h.word(s.feature().0);
        h.word(s.offsets().len() as u64);
        for &o in s.offsets() {
            h.word(u64::from(o));
        }
        h.u64s(s.values());
        match s.scores() {
            Some(scores) => h.f32s(scores),
            None => h.word(u64::MAX),
        }
    }
    h.finish()
}

/// Folds one generated sample into an input digest.
pub fn digest_sample(h: &mut Hasher, sample: &Sample) {
    h.word(u64::from(sample.label().to_bits()));
    for (id, v) in sample.dense_iter() {
        h.word(id.0);
        h.word(u64::from(v.to_bits()));
    }
    for (id, list) in sample.sparse_iter() {
        h.word(id.0);
        h.u64s(list.ids());
        if let Some(scores) = list.scores() {
            h.f32s(scores);
        }
    }
}

/// The order-independent reference a delivered epoch is checked against:
/// the sorted fingerprints of the tensors one worker produces on its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    sorted: Vec<u64>,
}

impl Reference {
    pub fn new(mut fingerprints: Vec<u64>) -> Self {
        fingerprints.sort_unstable();
        Self {
            sorted: fingerprints,
        }
    }

    pub fn batches(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Number of batches by which `delivered` differs from the reference as
    /// a multiset: every fingerprint missing from one side counts once, so
    /// a flipped bit (one missing, one unexpected) counts twice.
    pub fn mismatches(&self, mut delivered: Vec<u64>) -> u64 {
        delivered.sort_unstable();
        let (mut i, mut j, mut diff) = (0, 0, 0u64);
        while i < self.sorted.len() && j < delivered.len() {
            match self.sorted[i].cmp(&delivered[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
            }
        }
        diff + (self.sorted.len() - i) as u64 + (delivered.len() - j) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::{Batch, FeatureId, SparseList};

    fn tensor(seed: u64) -> MiniBatchTensor {
        let samples: Vec<Sample> = (0..4u64)
            .map(|i| {
                let mut s = Sample::new((i % 2) as f32);
                s.set_dense(FeatureId(1), (seed * 10 + i) as f32);
                s.set_sparse(FeatureId(2), SparseList::from_ids(vec![seed, i, i + 1]));
                s
            })
            .collect();
        Batch::from_samples(samples).materialize(&[FeatureId(1)], &[FeatureId(2)])
    }

    #[test]
    fn check_flags_dropped_duplicated_and_bit_flipped_batches() {
        let epoch: Vec<MiniBatchTensor> = (0..6).map(tensor).collect();
        let prints: Vec<u64> = epoch.iter().map(tensor_fingerprint).collect();
        let reference = Reference::new(prints.clone());
        assert_eq!(reference.batches(), 6);

        // Delivery order does not matter.
        let mut shuffled = prints.clone();
        shuffled.reverse();
        assert_eq!(reference.mismatches(shuffled), 0);

        let mut dropped = prints.clone();
        dropped.remove(2);
        assert_eq!(reference.mismatches(dropped), 1);

        let mut duplicated = prints.clone();
        duplicated.push(prints[4]);
        assert_eq!(reference.mismatches(duplicated), 1);

        let mut flipped_tensor = epoch[3].clone();
        let bits = flipped_tensor.labels[1].to_bits() ^ 1;
        flipped_tensor.labels[1] = f32::from_bits(bits);
        let mut flipped = prints.clone();
        flipped[3] = tensor_fingerprint(&flipped_tensor);
        assert_eq!(reference.mismatches(flipped), 2);
    }

    #[test]
    fn fingerprint_sees_every_part_of_a_tensor() {
        let base = tensor(1);
        let mut dense = base.clone();
        dense.dense.set(0, 0, 99.0);
        let mut sparse = base.clone();
        sparse.sparse[0].map_values_in_place(|v| v + 1);
        let prints = [&base, &dense, &sparse].map(tensor_fingerprint);
        assert_ne!(prints[0], prints[1]);
        assert_ne!(prints[0], prints[2]);
        assert_eq!(prints[0], tensor_fingerprint(&base.clone()));
    }

    #[test]
    fn digest_depends_on_sample_content() {
        let digest = |label: f32| {
            let mut s = Sample::new(label);
            s.set_dense(FeatureId(7), 0.5);
            let mut h = Hasher::default();
            digest_sample(&mut h, &s);
            h.finish()
        };
        assert_ne!(digest(0.0), digest(1.0));
        assert_eq!(digest(1.0), digest(1.0));
    }
}
