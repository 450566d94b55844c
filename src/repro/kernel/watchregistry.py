"""Registry of ECC-watched memory regions.

The kernel needs two lookups:

- by *virtual* line, to validate WatchMemory/DisableWatchMemory calls,
- by *physical* line, to attribute an ECC fault back to the virtual
  region the user handler reasons about.

Pinning guarantees the physical mapping of a watched region cannot
change while it is registered, so the physical index stays valid.
"""

from dataclasses import dataclass, field

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE, page_base
from repro.common.errors import SyscallError


@dataclass
class WatchedRegion:
    """One registered watch: a cache-line-aligned virtual range."""

    vaddr: int
    size: int
    #: virtual line base -> physical line base at registration time,
    #: in virtual line order.
    lines: dict = field(default_factory=dict)

    @property
    def pages(self):
        """Base addresses of the virtual pages this region touches."""
        return list(range(page_base(self.vaddr), self.vaddr + self.size,
                          PAGE_SIZE))

    @property
    def runs(self):
        """``(vaddr, paddr, size)`` of each physically contiguous stretch.

        A page maps to one frame, so a run can only break at a page
        boundary; pages on adjacent frames share a run.  In address
        order, covering the region exactly.
        """
        runs = []
        end = self.vaddr + self.size
        for page in self.pages:
            first = max(page, self.vaddr)
            size = min(page + PAGE_SIZE, end) - first
            paddr = self.lines[first]
            if runs and runs[-1][1] + runs[-1][2] == paddr:
                runs[-1][2] += size
            else:
                runs.append([first, paddr, size])
        return [tuple(run) for run in runs]

    def __contains__(self, vaddr):
        return self.vaddr <= vaddr < self.vaddr + self.size


class WatchRegistry:
    """All currently armed watch regions, with both-direction indexes."""

    def __init__(self):
        self._regions = {}
        self._by_vline = {}
        self._by_pline = {}

    def __len__(self):
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions.values())

    @property
    def armed_line_count(self):
        """Number of cache lines currently armed across all regions."""
        return len(self._by_vline)

    def add(self, region):
        if region.vaddr in self._regions:
            raise SyscallError(
                f"region at {region.vaddr:#x} is already watched"
            )
        for vline in region.lines:
            if vline in self._by_vline:
                raise SyscallError(
                    f"line {vline:#x} already belongs to a watched region"
                )
        self._regions[region.vaddr] = region
        for vline, pline in region.lines.items():
            self._by_vline[vline] = region
            self._by_pline[pline] = (region, vline)

    def remove(self, vaddr):
        region = self._regions.pop(vaddr, None)
        if region is None:
            raise SyscallError(f"no watched region at {vaddr:#x}")
        for vline, pline in region.lines.items():
            self._by_vline.pop(vline, None)
            self._by_pline.pop(pline, None)
        return region

    def get(self, vaddr):
        return self._regions.get(vaddr)

    def region_of_vline(self, vline):
        return self._by_vline.get(vline)

    def resolve_physical_line(self, pline):
        """Return ``(region, virtual_line)`` for a physical line or None."""
        return self._by_pline.get(pline)

    def covers_virtual(self, vaddr):
        """True when ``vaddr`` lies inside any watched region."""
        vline = vaddr - (vaddr % CACHE_LINE_SIZE)
        return vline in self._by_vline

    def all_regions(self):
        return list(self._regions.values())
