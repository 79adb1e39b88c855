//! The word arithmetic of the ARX primitives — ChaCha20's 32-bit words
//! and BLAKE2b's 64-bit ones: add, rotate, xor and nothing else.
//!
//! Each primitive's round function is written once over [`Arx`]
//! (`chacha20.rs`'s quarter round, `blake2b.rs`'s G and σ schedule) and
//! instantiated twice: for the plain word (`u32`, `u64`), one block at a
//! time, and — where the build target has AVX-512 — for a vector of
//! words ([`lanes::U32x16`], [`lanes::U64x8`]), one block per lane,
//! sixteen ChaCha20 blocks or eight BLAKE2b compressions per pass.
//!
//! Like `field::ifma`, the lane half is **compiled only where `avx512f`
//! and `avx512ifma` are statically enabled** (the same `cfg`, so one
//! build has the lanes for every kernel or for none; the symmetric
//! kernels use only AVX-512F).  There is no runtime detection.  The
//! lanes are vertical: lane `i` of every vector belongs to block `i`,
//! every lane runs the same instruction stream, and no lane's data
//! forms an address or a branch.

/// A word of an ARX round function: the plain integer, or one integer
/// per lane.
pub(crate) trait Arx: Copy {
    /// The plain integer of one lane.
    type Word: Copy;
    /// The same word in every lane.
    fn splat(x: Self::Word) -> Self;
    /// Lane-wise wrapping addition.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise exclusive or.
    fn xor(self, rhs: Self) -> Self;
    /// Lane-wise rotation left by `N` bits.
    fn rotl<const N: i32>(self) -> Self;
    /// Lane-wise rotation right by `N` bits.
    fn rotr<const N: i32>(self) -> Self;
}

macro_rules! plain_word {
    ($t:ty) => {
        impl Arx for $t {
            type Word = $t;
            #[inline(always)]
            fn splat(x: $t) -> $t {
                x
            }
            #[inline(always)]
            fn add(self, rhs: $t) -> $t {
                self.wrapping_add(rhs)
            }
            #[inline(always)]
            fn xor(self, rhs: $t) -> $t {
                self ^ rhs
            }
            #[inline(always)]
            fn rotl<const N: i32>(self) -> $t {
                self.rotate_left(N as u32)
            }
            #[inline(always)]
            fn rotr<const N: i32>(self) -> $t {
                self.rotate_right(N as u32)
            }
        }
    };
}

plain_word!(u32);
plain_word!(u64);

/// The lane words.  Every `unsafe` of the symmetric lane kernels is in
/// this module: one wrapper per instruction, sound because the module
/// only exists where the instruction does.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
))]
pub(crate) mod lanes {
    use std::arch::x86_64::*;

    use super::Arx;

    /// Sixteen 32-bit words, one per lane.
    #[derive(Clone, Copy)]
    pub(crate) struct U32x16(__m512i);

    /// Eight 64-bit words, one per lane.
    #[derive(Clone, Copy)]
    pub(crate) struct U64x8(__m512i);

    /// The unpack and lane-shuffle instructions the transposes are made
    /// of, each on 32-bit (`d`) or 64-bit (`q`) elements within each
    /// 128-bit lane, or on whole 128-bit lanes.
    #[inline(always)]
    fn unpacklo_d(a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: `vpunpckldq` is AVX-512F (module `cfg`).
        unsafe { _mm512_unpacklo_epi32(a, b) }
    }

    #[inline(always)]
    fn unpackhi_d(a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: `vpunpckhdq` is AVX-512F (module `cfg`).
        unsafe { _mm512_unpackhi_epi32(a, b) }
    }

    #[inline(always)]
    fn unpacklo_q(a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: `vpunpcklqdq` is AVX-512F (module `cfg`).
        unsafe { _mm512_unpacklo_epi64(a, b) }
    }

    #[inline(always)]
    fn unpackhi_q(a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: `vpunpckhqdq` is AVX-512F (module `cfg`).
        unsafe { _mm512_unpackhi_epi64(a, b) }
    }

    /// 128-bit lanes `[a[i0], a[i1], b[i2], b[i3]]`, `IMM = i0 | i1 << 2
    /// | i2 << 4 | i3 << 6`.
    #[inline(always)]
    fn shuffle_lanes<const IMM: i32>(a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: `vshufi32x4` is AVX-512F (module `cfg`).
        unsafe { _mm512_shuffle_i32x4::<IMM>(a, b) }
    }

    /// The 4×4 transpose of 128-bit lanes shared by both transposes:
    /// lane `j` of output `i` is lane `i` of input `j`.
    #[inline(always)]
    fn transpose_lanes(x: [__m512i; 4]) -> [__m512i; 4] {
        let v0 = shuffle_lanes::<0x44>(x[0], x[1]);
        let v1 = shuffle_lanes::<0xee>(x[0], x[1]);
        let v2 = shuffle_lanes::<0x44>(x[2], x[3]);
        let v3 = shuffle_lanes::<0xee>(x[2], x[3]);
        [
            shuffle_lanes::<0x88>(v0, v2),
            shuffle_lanes::<0xdd>(v0, v2),
            shuffle_lanes::<0x88>(v1, v3),
            shuffle_lanes::<0xdd>(v1, v3),
        ]
    }

    /// The 16×16 transpose of 32-bit words: word `w` of output `l` is
    /// word `l` of input `w`.  Its own inverse.
    #[inline(always)]
    pub(crate) fn transpose_16(rows: [U32x16; 16]) -> [U32x16; 16] {
        let r = rows.map(|row| row.0);
        // Pairs of rows interleaved, then pairs of pairs: `u[4g + j]`
        // holds rows `4g..4g+4` at column `4L + j` in its 128-bit lane L.
        let t: [__m512i; 16] = std::array::from_fn(|i| {
            let (a, b) = (r[i & !1], r[i | 1]);
            if i % 2 == 0 {
                unpacklo_d(a, b)
            } else {
                unpackhi_d(a, b)
            }
        });
        let u: [__m512i; 16] = std::array::from_fn(|i| {
            let (g, j) = (i / 4, i % 4);
            let (a, b) = (t[4 * g + j / 2], t[4 * g + 2 + j / 2]);
            if j % 2 == 0 {
                unpacklo_q(a, b)
            } else {
                unpackhi_q(a, b)
            }
        });
        let mut out = [U32x16(u[0]); 16];
        for j in 0..4 {
            let columns = transpose_lanes([u[j], u[4 + j], u[8 + j], u[12 + j]]);
            for (l, column) in columns.into_iter().enumerate() {
                out[4 * l + j] = U32x16(column);
            }
        }
        out
    }

    /// The 8×8 transpose of 64-bit words: word `w` of output `l` is word
    /// `l` of input `w`.  Its own inverse.
    #[inline(always)]
    pub(crate) fn transpose_8(rows: [U64x8; 8]) -> [U64x8; 8] {
        let r = rows.map(|row| row.0);
        // `t[2p + j]` holds rows `2p, 2p+1` at column `2L + j` in its
        // 128-bit lane L.
        let t: [__m512i; 8] = std::array::from_fn(|i| {
            let (a, b) = (r[i & !1], r[i | 1]);
            if i % 2 == 0 {
                unpacklo_q(a, b)
            } else {
                unpackhi_q(a, b)
            }
        });
        let mut out = [U64x8(t[0]); 8];
        for j in 0..2 {
            let columns = transpose_lanes([t[j], t[2 + j], t[4 + j], t[6 + j]]);
            for (l, column) in columns.into_iter().enumerate() {
                out[2 * l + j] = U64x8(column);
            }
        }
        out
    }

    impl U32x16 {
        /// Lane `i` holds little-endian word `i` of `bytes`.
        #[inline(always)]
        pub(crate) fn from_le_bytes(bytes: [u8; 64]) -> U32x16 {
            // SAFETY: 64 bytes of plain integers either way; x86-64 is
            // little-endian, so lane `i` is bytes `4i..4i + 4` read LE.
            U32x16(unsafe { std::mem::transmute::<[u8; 64], __m512i>(bytes) })
        }

        /// Lane `i` as little-endian bytes `4i..4i + 4`.
        #[inline(always)]
        pub(crate) fn to_le_bytes(self) -> [u8; 64] {
            // SAFETY: 64 bytes of plain integers either way; x86-64 is
            // little-endian, so lane `i` lands at bytes `4i..4i + 4` LE.
            unsafe { std::mem::transmute::<__m512i, [u8; 64]>(self.0) }
        }

        /// Lane `i` holds `words[i]`.
        #[inline(always)]
        pub(crate) fn from_array(words: [u32; 16]) -> U32x16 {
            // SAFETY: `[u32; 16]` and `__m512i` are both 64 bytes of
            // plain integers; every bit pattern is valid for either.
            U32x16(unsafe { std::mem::transmute::<[u32; 16], __m512i>(words) })
        }

        /// The sixteen lanes, lane `i` at index `i`.
        #[cfg(test)]
        pub(crate) fn to_array(self) -> [u32; 16] {
            // SAFETY: as `from_array`, in the other direction.
            unsafe { std::mem::transmute::<__m512i, [u32; 16]>(self.0) }
        }
    }

    impl U64x8 {
        /// Lane `i` holds little-endian word `i` of `bytes`.
        #[inline(always)]
        pub(crate) fn from_le_bytes(bytes: [u8; 64]) -> U64x8 {
            // SAFETY: 64 bytes of plain integers either way; x86-64 is
            // little-endian, so lane `i` is bytes `8i..8i + 8` read LE.
            U64x8(unsafe { std::mem::transmute::<[u8; 64], __m512i>(bytes) })
        }

        /// Lane `i` holds `words[i]`.
        #[inline(always)]
        pub(crate) fn from_array(words: [u64; 8]) -> U64x8 {
            // SAFETY: `[u64; 8]` and `__m512i` are both 64 bytes of
            // plain integers; every bit pattern is valid for either.
            U64x8(unsafe { std::mem::transmute::<[u64; 8], __m512i>(words) })
        }

        /// The eight lanes, lane `i` at index `i`.
        #[inline(always)]
        pub(crate) fn to_array(self) -> [u64; 8] {
            // SAFETY: as `from_array`, in the other direction.
            unsafe { std::mem::transmute::<__m512i, [u64; 8]>(self.0) }
        }
    }

    impl Arx for U32x16 {
        type Word = u32;
        #[inline(always)]
        fn splat(x: u32) -> U32x16 {
            U32x16::from_array([x; 16])
        }
        #[inline(always)]
        fn add(self, rhs: U32x16) -> U32x16 {
            // SAFETY: `vpaddd` is AVX-512F (module `cfg`).
            U32x16(unsafe { _mm512_add_epi32(self.0, rhs.0) })
        }
        #[inline(always)]
        fn xor(self, rhs: U32x16) -> U32x16 {
            // SAFETY: `vpxord` is AVX-512F (module `cfg`).
            U32x16(unsafe { _mm512_xor_si512(self.0, rhs.0) })
        }
        #[inline(always)]
        fn rotl<const N: i32>(self) -> U32x16 {
            // SAFETY: `vprold` is AVX-512F (module `cfg`).
            U32x16(unsafe { _mm512_rol_epi32::<N>(self.0) })
        }
        #[inline(always)]
        fn rotr<const N: i32>(self) -> U32x16 {
            // SAFETY: `vprord` is AVX-512F (module `cfg`).
            U32x16(unsafe { _mm512_ror_epi32::<N>(self.0) })
        }
    }

    impl Arx for U64x8 {
        type Word = u64;
        #[inline(always)]
        fn splat(x: u64) -> U64x8 {
            U64x8::from_array([x; 8])
        }
        #[inline(always)]
        fn add(self, rhs: U64x8) -> U64x8 {
            // SAFETY: `vpaddq` is AVX-512F (module `cfg`).
            U64x8(unsafe { _mm512_add_epi64(self.0, rhs.0) })
        }
        #[inline(always)]
        fn xor(self, rhs: U64x8) -> U64x8 {
            // SAFETY: `vpxorq` is AVX-512F (module `cfg`).
            U64x8(unsafe { _mm512_xor_si512(self.0, rhs.0) })
        }
        #[inline(always)]
        fn rotl<const N: i32>(self) -> U64x8 {
            // SAFETY: `vprolq` is AVX-512F (module `cfg`).
            U64x8(unsafe { _mm512_rol_epi64::<N>(self.0) })
        }
        #[inline(always)]
        fn rotr<const N: i32>(self) -> U64x8 {
            // SAFETY: `vprorq` is AVX-512F (module `cfg`).
            U64x8(unsafe { _mm512_ror_epi64::<N>(self.0) })
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn transposes_swap_rows_and_columns() {
            let rows: [U32x16; 16] = std::array::from_fn(|r| {
                U32x16::from_array(std::array::from_fn(|c| (r * 16 + c) as u32))
            });
            let columns = transpose_16(rows).map(U32x16::to_array);
            for (c, column) in columns.iter().enumerate() {
                for (r, word) in column.iter().enumerate() {
                    assert_eq!(*word, (r * 16 + c) as u32);
                }
            }
            let rows: [U64x8; 8] = std::array::from_fn(|r| {
                U64x8::from_array(std::array::from_fn(|c| (r * 8 + c) as u64))
            });
            let columns = transpose_8(rows).map(U64x8::to_array);
            for (c, column) in columns.iter().enumerate() {
                for (r, word) in column.iter().enumerate() {
                    assert_eq!(*word, (r * 8 + c) as u64);
                }
            }
        }
    }
}
