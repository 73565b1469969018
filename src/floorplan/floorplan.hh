/**
 * @file
 * Block-level floorplans: rectangular blocks with power, optionally
 * assigned to one of two stacked dies, plus the netlist and wire-
 * delay machinery used to convert block-to-block distance into pipe
 * stages (the quantity Logic+Logic stacking eliminates).
 */

#ifndef STACK3D_FLOORPLAN_FLOORPLAN_HH
#define STACK3D_FLOORPLAN_FLOORPLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "thermal/power_map.hh"

namespace stack3d {
namespace floorplan {

/** A placed rectangular block. */
struct Block
{
    std::string name;
    double x = 0.0;        ///< lower-left corner, metres
    double y = 0.0;
    double width = 0.0;    ///< metres
    double height = 0.0;
    double power = 0.0;    ///< watts
    unsigned die = 0;      ///< 0 = die #1 (next to heat sink)

    double area() const { return width * height; }
    double powerDensity() const { return power / area(); }
    double centerX() const { return x + width / 2.0; }
    double centerY() const { return y + height / 2.0; }
};

/** A weighted connection between two blocks. */
struct Net
{
    std::string from;
    std::string to;
    /** Relative wiring weight (bus width / criticality). */
    double weight = 1.0;
};

/** A named floorplan over one- or two-die extents. */
class Floorplan
{
  public:
    Floorplan(std::string name, double width, double height)
        : _name(std::move(name)), _width(width), _height(height)
    {
    }

    const std::string &name() const { return _name; }
    double width() const { return _width; }
    double height() const { return _height; }

    /** Add a block; fatal if it extends outside the die. */
    void addBlock(const Block &block);

    void addNet(const Net &net);

    const std::vector<Block> &blocks() const { return _blocks; }
    const std::vector<Net> &nets() const { return _nets; }

    /** Block by name; fatal if absent. */
    const Block &block(const std::string &name) const;
    Block &mutableBlock(const std::string &name);

    /** Sum of block power, optionally restricted to one die. */
    double totalPower() const;
    double diePower(unsigned die) const;

    /** Sum of block areas on a die. */
    double dieArea(unsigned die) const;

    /** Highest single-block power density on a die (W/m^2). */
    double peakBlockDensity(unsigned die) const;

    /**
     * Combined vertical power density of the two dies: the maximum
     * over the plane of (density die0 + density die1), computed on a
     * sampling grid. For a single-die plan this equals the planar
     * peak density. Used by the iterative "observe density and
     * repair outliers" loop.
     */
    double peakStackedDensity(unsigned samples = 64) const;

    /** Manhattan center-to-center distance between two blocks;
     *  blocks on different dies add only the (negligible) d2d hop. */
    double wireDistance(const std::string &from,
                        const std::string &to) const;

    /** Rasterize one die's blocks into a thermal power map. */
    thermal::PowerMap powerMap(unsigned nx, unsigned ny,
                               unsigned die) const;

    /** True if no two same-die blocks overlap (within tolerance). */
    [[nodiscard]] bool validateNoOverlap() const;

  private:
    std::string _name;
    double _width, _height;
    std::vector<Block> _blocks;
    std::vector<Net> _nets;
};

/**
 * Wire-delay model: converts wire length into whole pipe stages.
 */
struct WireModel
{
    /** Distance a repeated global wire covers per clock, metres. */
    double reach_per_cycle = 2.5e-3;

    /** Full pipe stages needed for @p distance of wire. */
    unsigned
    pipeStages(double distance) const
    {
        stack3d_assert(reach_per_cycle > 0.0, "wire reach must be > 0");
        return unsigned(distance / reach_per_cycle);
    }
};

} // namespace floorplan
} // namespace stack3d

#endif // STACK3D_FLOORPLAN_FLOORPLAN_HH
