/**
 * @file
 * SECDED Hamming(72,64) error correcting code.
 *
 * The real flash card corrects NAND bit errors on the Artix-7 before
 * data ever leaves the board, presenting "logical error-free access
 * into flash" (paper section 5.1). We implement a genuine single-error-
 * correcting, double-error-detecting extended Hamming code over 64-bit
 * words: weaker than production BCH but a real codec whose correction
 * behaviour is testable bit-for-bit. Raw bit error rates are
 * parameterized, so the (rate x strength) product can be matched to any
 * target uncorrectable-page probability.
 */

#ifndef BLUEDBM_FLASH_ECC_HH
#define BLUEDBM_FLASH_ECC_HH

#include <cstdint>
#include <vector>

namespace bluedbm {
namespace flash {

/**
 * Result of decoding one codeword or page.
 */
struct EccResult
{
    std::uint32_t correctedBits = 0; //!< single-bit errors fixed
    bool uncorrectable = false;      //!< a double error was detected
};

/**
 * Extended Hamming(72,64) codec.
 *
 * Each 64-bit data word is protected by 7 Hamming parity bits plus one
 * overall parity bit. Encoding produces one 8-bit syndrome byte per
 * word; pages carry their check bytes out of band, as a real card
 * keeps spare-area bytes. They are a pure function of the stored
 * bytes, so the NAND array computes them at sense, not at program.
 */
class Secded72
{
  public:
    /** Check bytes needed for a payload of @p data_bytes. */
    static std::size_t
    checkBytes(std::size_t data_bytes)
    {
        return (data_bytes + 7) / 8;
    }

    /**
     * Compute check bytes for @p data.
     *
     * @param data payload; length need not be a multiple of 8
     * @return one check byte per 64-bit word
     */
    static std::vector<std::uint8_t>
    encode(const std::vector<std::uint8_t> &data);

    /**
     * Verify and correct @p data in place against @p check.
     *
     * Single-bit errors per word (in data or check bits) are corrected;
     * double-bit errors are flagged uncorrectable.
     */
    static EccResult
    decode(std::vector<std::uint8_t> &data,
           const std::vector<std::uint8_t> &check);

    /** Encode a single 64-bit word into its 8 check bits. */
    static std::uint8_t encodeWord(std::uint64_t word);

    /**
     * Decode one word.
     *
     * @param word  data word, corrected in place if possible
     * @param check stored check bits
     * @return per-word result
     */
    static EccResult decodeWord(std::uint64_t &word,
                                std::uint8_t check);
};

} // namespace flash
} // namespace bluedbm

#endif // BLUEDBM_FLASH_ECC_HH
