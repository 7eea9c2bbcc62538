module entx
  implicit none
  integer :: nv
  real*8 :: flux2(2, 60)
  real*8 :: tl(61)
  real*8 :: ent2(2, 60)
end module entx

subroutine entx_init()
  use entx
  implicit none
  integer :: idir, k
  nv = 60
  do k = 1, 61
    tl(k) = 220.0d0 + 0.9d0 * k
  end do
  do idir = 1, 2
    do k = 1, 60
      flux2(idir, k) = 40.0d0 + idir * 3.0d0 + 0.25d0 * k
    end do
  end do
end subroutine entx_init

subroutine ent_sweep()
  use entx
  implicit none
  integer :: idir, k, j
  real*8 :: acc, dtq
!$omp parallel do private(idir, k, j, acc, dtq) collapse(2)
  do idir = 1, 2
    do k = 1, nv
      acc = 0.0d0
      do j = max(k - 12, 1), min(k + 12, nv)
        dtq = tl(j) - tl(k)
        if (abs(dtq) > 2.0d0) then
          acc = acc + flux2(idir, j) * dtq / (tl(j) * tl(k))
        else
          acc = acc + flux2(idir, j) * 2.0d0 / (tl(j) + tl(k)) * 0.01d0
        end if
      end do
      ent2(idir, k) = flux2(idir, k) / tl(k) + 0.05d0 * acc / nv
    end do
  end do
!$omp end parallel do
end subroutine ent_sweep
