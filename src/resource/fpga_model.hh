/**
 * @file
 * FPGA resource cost model reproducing Tables 1 and 2 of the paper.
 *
 * Hardware cannot be synthesized here, so resource usage is modeled:
 * each hardware module has a cost function in terms of its design
 * parameters (interleaving ways, port counts, buffer depths),
 * calibrated so the paper's configuration lands exactly on the
 * published numbers. Only that configuration is evaluated (the
 * paper bench's restated table rows), so the cost functions are
 * unchecked anywhere else.
 */

#ifndef BLUEDBM_RESOURCE_FPGA_MODEL_HH
#define BLUEDBM_RESOURCE_FPGA_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace bluedbm {
namespace resource {

/**
 * Resource usage of one module instance.
 */
struct Usage
{
    std::string name;
    unsigned instances = 1;
    std::uint32_t luts = 0;      //!< per instance
    std::uint32_t registers = 0; //!< per instance
    std::uint32_t bram36 = 0;    //!< RAMB36 per instance
    std::uint32_t bram18 = 0;    //!< RAMB18 per instance
    /** Sub-modules are constituents of the row above them and are
     * excluded from totals (the indented rows of Table 1). */
    bool subModule = false;

    std::uint64_t
    totalLuts() const
    {
        return std::uint64_t(luts) * instances;
    }

    std::uint64_t
    totalRegs() const
    {
        return std::uint64_t(registers) * instances;
    }
};

/**
 * Device capacities for utilization percentages.
 */
struct Device
{
    std::string name;
    std::uint64_t luts = 0;
    std::uint64_t registers = 0;
    std::uint64_t bram36 = 0;
    std::uint64_t bram18 = 0;
};

/** The Artix-7 chip on each custom flash card (XC7A200T-class). */
Device artix7();

/** The Virtex-7 chip on the VC707 host board (XC7VX485T). */
Device virtex7();

/**
 * Flash controller on the Artix-7 (Table 1) parameterized by the
 * design knobs of our flash substrate.
 */
struct FlashControllerConfig
{
    unsigned busControllers = 8; //!< one per flash bus
    unsigned eccDecodersPerBus = 2;
    unsigned eccEncodersPerBus = 2;
    unsigned serdesLanes = 4;    //!< aurora lanes to the host FPGA
};

/** Per-module usage of the flash-card controller (Table 1 rows). */
std::vector<Usage> flashControllerUsage(const FlashControllerConfig &);

/**
 * Host-side Virtex-7 design (Table 2) parameterized by our node
 * configuration.
 */
struct HostFpgaConfig
{
    unsigned flashCards = 2;
    unsigned networkPorts = 8;
    unsigned dmaReadEngines = 4;
    unsigned dmaWriteEngines = 4;
    unsigned readBuffers = 128;
    unsigned writeBuffers = 128;
};

/** Per-module usage of the host FPGA (Table 2 rows). */
std::vector<Usage> hostFpgaUsage(const HostFpgaConfig &);

/** Sum a usage list. */
Usage totalUsage(const std::vector<Usage> &rows, std::string name);

/** Percent utilization helper. */
double percent(std::uint64_t used, std::uint64_t capacity);

} // namespace resource
} // namespace bluedbm

#endif // BLUEDBM_RESOURCE_FPGA_MODEL_HH
