#ifndef EXTIDX_CARTRIDGE_CHEM_FINGERPRINT_H_
#define EXTIDX_CARTRIDGE_CHEM_FINGERPRINT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "cartridge/chem/molecule.h"

namespace exi::chem {

// Daylight-style path fingerprint: every labeled linear path of up to
// kMaxPathAtoms atoms sets kBitsPerPath bits of a kFingerprintBits-bit
// vector.  Guarantees the screening property: if Q is a substructure of M,
// every path of Q is a path of M, so fp(Q) & fp(M) == fp(Q).  Tanimoto
// similarity over these bit vectors drives MolSimilar.
inline constexpr size_t kFingerprintBits = 512;
inline constexpr size_t kFingerprintWords = kFingerprintBits / 64;
inline constexpr int kMaxPathAtoms = 5;
inline constexpr int kBitsPerPath = 2;

using FingerprintData = std::array<uint64_t, kFingerprintWords>;

struct Fingerprint {
  FingerprintData bits{};

  void SetBit(size_t i) { bits[i / 64] |= (1ULL << (i % 64)); }
  uint32_t PopCount() const;

  // Screening test: every bit of `query` is set here.
  bool Covers(const Fingerprint& query) const;

  bool operator==(const Fingerprint& other) const {
    return bits == other.bits;
  }
};

Fingerprint ComputeFingerprint(const Molecule& mol);

// Tanimoto coefficient: |a & b| / |a | b|, in [0,1]; 1 for identical
// fingerprints (both-empty defined as 1).
double Tanimoto(const Fingerprint& a, const Fingerprint& b);

// Serialization for the index record stores (LOB / external file).
void AppendFingerprintRecord(std::vector<uint8_t>* buf, uint64_t rid,
                             const Fingerprint& fp);
inline constexpr size_t kFingerprintRecordBytes = 8 + kFingerprintBits / 8;

struct FingerprintRecord {
  uint64_t rid;
  Fingerprint fp;
};

// Decodes `buf` as a dense array of records (rid 0 = tombstone, skipped).
std::vector<FingerprintRecord> DecodeFingerprintRecords(
    const std::vector<uint8_t>& buf);

}  // namespace exi::chem

#endif  // EXTIDX_CARTRIDGE_CHEM_FINGERPRINT_H_
